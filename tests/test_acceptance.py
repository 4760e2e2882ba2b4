"""Acceptance suite: one test per top-level correctness criterion.

Each test emits a single PASS/FAIL line outside pytest's capture, so the
line shows up in the live output either way, then asserts the criterion.
"""

import time

import numpy as np
import pytest

from tncompress.admm import (AdmmConfig, AdmmState, admm_y_update,
                             balanced_unfold, svt)
from tncompress.als import AlsConfig, als_fit
from tncompress.contraction import contract_network
from tncompress.layers import (complexity_conv, conv2d_dense, conv2d_tn,
                               fc_tn, plan_tensorization, tensorize_matrix)
from tncompress.oracles import (brute_force_contract, check_theorem1,
                                generate_cp, generate_tucker)
from tncompress.model_io import ModelContainer, load_model, save_model
from tncompress.pipeline import (compress_container, evaluate_container,
                                 net_to_container, run_compress, run_train)
from tncompress.ranks import (determine_ranks, effective_rank,
                              kappa_for_budget, ranks_from_curves,
                              retention_curves)
from tncompress.topology import (TNTopology, mode_pairs, random_factor_set,
                                 tn_param_count, uniform_topology)
from tncompress.toynet import make_blobs, make_dataset, make_net, toy_backward
from tncompress.training import train_sgd, train_stn

from test_admm import nuclear_norm
from test_training import evaluate_net


@pytest.fixture
def report(capsys):
    def _report(criterion: str, ok: bool, detail: str = ""):
        suffix = f"  ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\nacceptance: {criterion}: "
                  f"{'PASS' if ok else 'FAIL'}{suffix}", flush=True)
        assert ok, f"{criterion} failed{suffix}"
    return _report


def test_criterion_1_contraction_correctness(report):
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(200):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 7, size=order))
        ranks = {p: int(rng.integers(1, 4)) for p in mode_pairs(order)}
        f = random_factor_set(TNTopology(dims, ranks), seed=i)
        fast = contract_network(f)
        slow = brute_force_contract(f)
        err = np.linalg.norm(fast - slow) / max(np.linalg.norm(slow), 1e-300)
        worst = max(worst, err)
    elapsed = time.time() - start
    report("contraction vs brute force (200 instances)",
           worst <= 1e-5 and elapsed <= 60.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_als_planted_recovery(report):
    start = time.time()
    topo = uniform_topology((6, 6, 6, 6), 2)
    successes = 0
    monotone = True
    for seed in range(20):
        target = contract_network(random_factor_set(topo, seed=500 + seed))
        result = als_fit(target, topo, AlsConfig(seed=seed))
        if result.rse <= 1e-4:
            successes += 1
        if result.history.size > 1 and np.any(np.diff(result.history) > 1e-7):
            monotone = False
    elapsed = time.time() - start
    report("ALS planted recovery (20 seeds)",
           successes >= 18 and monotone and elapsed <= 120.0,
           f"{successes}/20 recovered, monotone={monotone}, {elapsed:.1f}s")


def test_criterion_3_layer_equivalence(report):
    rng = np.random.default_rng(103)
    cfg = AlsConfig(tol=1e-9)

    kernel = rng.standard_normal((3, 3, 4, 6))
    sel = determine_ranks(kernel, 1.0)
    factors = als_fit(kernel, TNTopology(kernel.shape, sel.ranks), cfg).factors
    x = rng.standard_normal((8, 8, 4))
    dense_out = conv2d_dense(x, kernel)
    tn_out = conv2d_tn(x, factors)
    conv_err = (np.linalg.norm(tn_out - dense_out)
                / np.linalg.norm(dense_out))

    w = rng.standard_normal((16, 16))
    plan = plan_tensorization(16, 16)
    assert plan.out_factors == (4, 4) and plan.in_factors == (4, 4)
    t = tensorize_matrix(w, plan)
    sel = determine_ranks(t, 1.0)
    fc_factors = als_fit(t, TNTopology(t.shape, sel.ranks), cfg).factors
    v = rng.standard_normal(16)
    fc_err = (np.linalg.norm(fc_tn(v, fc_factors, plan) - w @ v)
              / np.linalg.norm(w @ v))

    report("layer equivalence at full ranks",
           conv_err <= 1e-5 and fc_err <= 1e-5,
           f"conv rel err {conv_err:.2e}, fc rel err {fc_err:.2e}")


def test_criterion_4_rank_selection(report):
    rng = np.random.default_rng(104)
    ok = True
    # rank-1 tensors give all-ones rank tables at every kappa
    for i in range(5):
        t = generate_cp((4, 5, 3, 4), r_cp=1, seed=200 + i)
        for kappa in np.linspace(1 / 32, 1.0, 32):
            sel = determine_ranks(t, float(kappa))
            ok = ok and all(r == 1 for r in sel.ranks.values())
    # ranks monotone non-decreasing over a 32-point kappa grid
    for i in range(5):
        t = rng.standard_normal(tuple(int(d) for d in rng.integers(3, 7, size=4)))
        curves, _ = retention_curves(t)
        prev = None
        for kappa in np.linspace(1 / 32, 1.0, 32):
            ranks = ranks_from_curves(curves, float(kappa))
            if prev is not None:
                ok = ok and all(ranks[p] >= prev[p] for p in ranks)
            prev = ranks
    # budget search bracketed by a 1/256-grid linear scan
    grid_ok = True
    for i in range(10):
        dims = tuple(int(d) for d in rng.integers(3, 7, size=4))
        t = rng.standard_normal(dims)
        res = kappa_for_budget(t, 2.0)
        curves, _ = retention_curves(t)

        def params_at(k):
            return tn_param_count(TNTopology(dims, ranks_from_curves(curves, k)))

        feasible = [g / 256 for g in range(1, 257)
                    if t.size >= 2.0 * params_at(g / 256)]
        k_grid = max(feasible)
        grid_ok = grid_ok and (t.size >= 2.0 * params_at(res.kappa)
                               and k_grid <= res.kappa < k_grid + 1 / 256
                               and params_at(res.kappa) >= params_at(k_grid))
    report("rank selection and budget search", ok and grid_ok)


def test_criterion_5_svt_prox(report):
    rng = np.random.default_rng(105)
    closed_ok = True
    prox_ok = True
    for i in range(50):
        rows, cols = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        a = rng.standard_normal((rows, cols))
        tau = float(rng.uniform(0.05, 1.5))
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        expected = (u * np.maximum(s - tau, 0.0)) @ vh
        z = svt(a, tau)
        closed_ok = closed_ok and np.linalg.norm(z - expected) <= 1e-6

        def objective(m):
            return tau * nuclear_norm(m) + 0.5 * np.linalg.norm(m - a) ** 2

        base = objective(z)
        noise = rng.standard_normal((1000,) + z.shape)
        scales = rng.uniform(0.01, 1.0, size=1000)
        for n, sc in zip(noise, scales):
            if objective(z + sc * n) < base - 1e-10:
                prox_ok = False
                break
    report("SVT closed form and prox optimality (50 matrices)",
           closed_ok and prox_ok)


def test_criterion_6_admm_sanity(report, reference_steps):
    # lam = 0 training is bitwise plain SGD: train_stn, which runs no ADMM
    # round at lam = 0, and train_sgd equal a loop that runs every round
    bitwise = True
    for seed in range(3):
        data = make_blobs(seed)
        cfg = AdmmConfig(lam=0.0, max_steps=200, seed=seed)
        a, _ = train_stn(make_net("mlp", seed), data, cfg)
        b, _ = train_sgd(make_net("mlp", seed), data, cfg)
        *_, (_, _, _, state) = reference_steps(make_net("mlp", seed), data,
                                               cfg)
        bitwise = bitwise and all(
            np.array_equal(wa, want) and np.array_equal(wb, want)
            for wa, wb, want in zip(a.weights, b.weights, state.w))
    # mu follows min(rho^k, mu_max)
    cfg = AdmmConfig()
    state = AdmmState.init([np.zeros((2, 2), dtype=np.float32)], cfg)
    mu_ok = True
    for k in range(1, 4000):
        admm_y_update(state, cfg)
        mu_ok = mu_ok and abs(state.mu - min(1.001 ** k, 10.0)) <= 1e-9
    # central-difference gradient checks on every weight of both nets
    grad_ok = True
    for arch in ("mlp", "tinycnn"):
        net = make_net(arch, seed=0)
        data = make_dataset(arch, seed=1)
        x, y = data.x_train[:8], data.y_train[:8]
        analytic = toy_backward(net, x, y)
        eps = 1e-5
        for li, w in enumerate(net.weights):
            numeric = np.zeros(w.shape)
            flat = w.reshape(-1)
            nflat = numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp, _, _ = net.loss_and_grads(x, y)
                flat[i] = orig - eps
                lm, _, _ = net.loss_and_grads(x, y)
                flat[i] = orig
                nflat[i] = (lp - lm) / (2 * eps)
            rel = (np.linalg.norm(analytic[li] - numeric)
                   / max(np.linalg.norm(numeric), 1e-12))
            grad_ok = grad_ok and rel <= 1e-3
    report("ADMM sanity (bitwise SGD, mu schedule, gradient checks)",
           bitwise and mu_ok and grad_ok)


def test_criterion_7_structure_aware_effect(report):
    start = time.time()
    reg_ranks, unreg_ranks, reg_drops, unreg_drops = [], [], [], []
    for seed in range(5):
        data_seed = 100 + seed
        data = make_blobs(data_seed)
        for lam, ranks, drops in ((0.005, reg_ranks, reg_drops),
                                  (0.0, unreg_ranks, unreg_drops)):
            cfg = AdmmConfig(lam=lam, period=1, max_steps=6000, seed=seed)
            net, _ = train_stn(make_net("mlp", seed), data, cfg)
            mat, _ = balanced_unfold(net.weights[0])
            ranks.append(effective_rank(mat, 0.9))
            dense_acc = evaluate_net(net, data.x_test,
                                     data.y_test)["accuracy"]
            container = net_to_container(
                net, "mlp", {"data_seed": str(data_seed), "seed": str(seed)})
            compressed, _ = compress_container(container, budget=2.0)
            comp_acc = evaluate_container(compressed, data_seed)["accuracy"]
            drops.append(dense_acc - comp_acc)
    elapsed = time.time() - start
    rank_ok = np.median(reg_ranks) < np.median(unreg_ranks)
    drop_ok = np.median(reg_drops) <= np.median(unreg_drops)
    report("low-rank regularization effect (5 paired seeds)",
           rank_ok and drop_ok and elapsed <= 300.0,
           f"median effective rank {np.median(reg_ranks):.0f} vs "
           f"{np.median(unreg_ranks):.0f}, median accuracy drop "
           f"{np.median(reg_drops):+.4f} vs {np.median(unreg_drops):+.4f}, "
           f"{elapsed:.1f}s")


def test_criterion_8_complexity_accounting(report):
    rng = np.random.default_rng(108)
    ok = True
    for _ in range(50):
        k = int(rng.integers(1, 6))
        s, t = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        r = int(rng.integers(1, 5))
        topo = uniform_topology((k, k, s, t), r)
        ok = ok and tn_param_count(topo) == (2 * k + s + t) * r ** 3
    for _ in range(50):
        i1, i2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        j1, j2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        r = int(rng.integers(1, 5))
        topo = uniform_topology((i1, i2, j1, j2), r)
        ok = ok and tn_param_count(topo) == (i1 + i2 + j1 + j2) * r ** 3
    info = complexity_conv(3, 16, 16, 32, 32, 2)
    ratio = (3 * 3 * 16 * 16) / ((2 * 3 + 16 + 16) * 2 ** 3)
    ok = ok and abs(info["p_conv"] - ratio) <= 1e-9
    report("parameter-count closed forms (100 draws)", ok)


def test_criterion_9_theorem1_suite(report):
    rng = np.random.default_rng(109)
    violations = 0
    for i in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=4))
        r = int(rng.integers(1, 4))
        rep = check_theorem1(generate_cp(dims, r, seed=i), "cp", r_cp=r)
        violations += sum(not row["ok"] for row in rep.rows)
    for i in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=4))
        ranks = tuple(int(x) for x in rng.integers(1, 4, size=4))
        rep = check_theorem1(generate_tucker(dims, ranks, seed=1000 + i),
                             "tucker", tucker_ranks=ranks)
        violations += sum(not row["ok"] for row in rep.rows)
    report("unfolding-rank bounds (200 tensors)", violations == 0,
           f"{violations} violations")


def test_criterion_10_pipeline_determinism(tmp_path, report):
    # save/load round trip is bit-identical
    rng = np.random.default_rng(110)
    container = ModelContainer(
        manifest={"arch": "mlp", "layers": "0", "note": "roundtrip"},
        tensors={"a": rng.standard_normal((5, 3, 2)).astype(np.float32)})
    p1 = tmp_path / "a.stnz"
    save_model(p1, container)
    loaded = load_model(p1)
    p2 = tmp_path / "b.stnz"
    save_model(p2, loaded)
    roundtrip_ok = (p1.read_bytes() == p2.read_bytes()
                    and np.array_equal(loaded.tensors["a"],
                                       container.tensors["a"]))

    # two identical train -> compress runs produce byte-identical artifacts
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text("arch = mlp\nlambda = 0.005\nsteps = 300\n"
                        "seed = 0\ndata_seed = 5\n")
    files = []
    for tag in ("one", "two"):
        dense = tmp_path / f"dense_{tag}.stnz"
        compressed = tmp_path / f"tn_{tag}.stnz"
        run_train(cfg_path, dense)
        run_compress(dense, compressed, budget=2.0)
        files.append((dense.read_bytes(), compressed.read_bytes()))
    pipeline_ok = files[0] == files[1]
    report("persistence round trip and pipeline determinism",
           roundtrip_ok and pipeline_ok)
