"""Outside-in tracing: wrap library functions at the names their callers
look them up under, record one span per call, and fold the spans of each
op into per-function counts and self times.

Nothing under ``src/`` changes.  A wrapper is installed by rebinding a
module (or class) attribute for the duration of a traced op and restored
afterwards, so untraced ops run the original code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# metric name -> lookup sites ("module:attribute[.attribute]") that are
# rebound to the wrapper.  A layer whose functions are looked up under
# several names is wrapped at each of them.
SITES: dict[str, tuple[str, ...]] = {
    # train path
    "admm.balanced_unfold": ("tncompress.training:balanced_unfold",
                             "tncompress.admm:balanced_unfold"),
    "ranks.effective_rank": ("tncompress.training:effective_rank",),
    "toynet.loss_and_grads": ("tncompress.toynet:MLP.loss_and_grads",
                              "tncompress.toynet:TinyCNN.loss_and_grads"),
    "training.train_stn": ("tncompress.pipeline:train_stn",),
    "admm.admm_w_update": ("tncompress.training:admm_w_update",),
    "admm.admm_z_update": ("tncompress.training:admm_z_update",),
    "admm.svt": ("tncompress.admm:svt",),
    # compress path: rank selection / budget search
    "ranks.retention_curves": ("tncompress.pipeline:retention_curves",),
    "ranks.ranks_from_curves": ("tncompress.pipeline:ranks_from_curves",),
    "topology.tn_param_count": ("tncompress.pipeline:tn_param_count",),
    "pipeline.compress_container": ("tncompress.pipeline:compress_container",),
    # compress path: the fit side of the contraction layer
    "als.als_fit": ("tncompress.pipeline:als_fit",),
    "als.complement_matrix": ("tncompress.als:complement_matrix",),
    "contraction.contract_network": ("tncompress.als:contract_network",),
    # eval path: the forward side of the contraction layer
    "layers.fc_tn": ("tncompress.pipeline:fc_tn",),
    "layers.conv2d_tn": ("tncompress.pipeline:conv2d_tn",),
    "layers.conv2d_dense": ("tncompress.pipeline:conv2d_dense",),
    "pipeline.model_logits": ("tncompress.pipeline:model_logits",),
    # every path
    "model_io.load_model": ("tncompress.pipeline:load_model",),
    "model_io.save_model": ("tncompress.pipeline:save_model",),
    "pipeline.container_layers": ("tncompress.pipeline:container_layers",),
}


def resolve(site: str):
    """(owner, attribute name, current value) of a lookup site; raises
    AttributeError or ImportError when the site no longer exists."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    failed: bool = False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children intervals are merged before subtracting)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0
    inclusive_s: float = 0.0   # outermost spans of this name only


@dataclass
class AlsStats:
    attempts: int = 0
    sweeps: int = 0
    winning_sweeps: int = 0


@dataclass
class Tracer:
    """Records spans while installed; `fold()` turns the spans of one op
    into per-name totals and clears them."""

    sites: dict[str, tuple[str, ...]] = field(default_factory=lambda: SITES)
    spans: list[Span] = field(default_factory=list)
    stats: dict[str, LayerStats] = field(default_factory=dict)
    als: AlsStats = field(default_factory=AlsStats)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def __post_init__(self):
        """Check every lookup site once.  A layer with a missing site is
        dropped (reported absent, with a warning), never reported as 0."""
        for name, where in self.sites.items():
            try:
                for site in where:
                    resolve(site)
            except (AttributeError, ImportError) as exc:
                print(f"perfbench: warning: lookup site for {name} is gone "
                      f"({exc}); its metrics are absent", file=sys.stderr)
                self.absent.append(name)
                continue
            self.stats[name] = LayerStats()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        als = self.als if name == "als.als_fit" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if als is not None:
                als.attempts += result.attempts
                als.sweeps += result.total_sweeps
                als.winning_sweeps += len(result.history)
            return result

        return traced

    def __enter__(self):
        for name in self.stats:
            for site in self.sites[name]:
                owner, attr, fn = resolve(site)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def fold(self) -> dict[str, float]:
        """Add the recorded spans to the totals, clear them, and return the
        inclusive time per name for this op."""
        inclusive: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            st = self.stats[span.name]
            st.calls += 1
            st.self_s += own
            st.failed += span.failed
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent < 0:
                dur = span.end - span.start
                st.inclusive_s += dur
                inclusive[span.name] = inclusive.get(span.name, 0.0) + dur
        self.spans.clear()
        return inclusive
