"""The package reaches into numpy's private modules, and passes numpy's
hidden keywords, at exactly the uses that `pyproject.toml`'s numpy bound
and the README name, so a new private use fails here until both are
updated with it."""

import ast
import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DECLARED = {"numpy.linalg._umath_linalg.solve",
            "numpy.einsum_path(einsum_call=)"}


def dotted(node, bound) -> str | None:
    """The full path of a numpy name, or of an attribute chain on one, that
    node reads; None if it reads none."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(attrs)])
    return None


def numpy_uses(tree) -> set[str]:
    """The dotted numpy names a module imports or reads through an
    attribute of an imported numpy name, each as its full path, and, as
    `path(keyword=)`, each keyword passed to a numpy callable whose
    docstring does not name it: a hidden option, private as an
    underscored name is."""
    bound, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    uses.add(alias.name)
                    bound[alias.asname or "numpy"] = (
                        alias.name if alias.asname else "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "numpy":
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                uses.add(path)
                bound[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (path := dotted(node, bound)):
            uses.add(path)
        if isinstance(node, ast.Call) and (
                callee := dotted(node.func, bound)):
            doc = pkgutil.resolve_name(callee).__doc__ or ""
            uses |= {f"{callee}({kw.arg}=)" for kw in node.keywords
                     if kw.arg and not re.search(rf"\b{kw.arg}\b", doc)}
    # a prefix of a longer use (np._core of np._core.einsumfunc) is not one
    return {u for u in uses if not any(v.startswith(u + ".") for v in uses)}


def is_private(path: str) -> bool:
    return path.endswith("=)") or any(
        part.startswith("_") and not part.endswith("__")
        for part in path.split("."))


def test_private_numpy_uses_are_the_declared_ones():
    found = {}
    for source in sorted((ROOT / "src" / "tncompress").glob("*.py")):
        for use in numpy_uses(ast.parse(source.read_text())):
            if is_private(use):
                found.setdefault(use, []).append(source.name)
    assert set(found) == DECLARED, found


def test_the_bound_comment_and_the_readme_name_them():
    pyproject = (ROOT / "pyproject.toml").read_text()
    readme = (ROOT / "README.md").read_text()
    for path in DECLARED:
        module, name = path.rsplit(".", 1)
        for text in (pyproject, readme):
            assert f"`{module}" in text and name in text, path


def test_the_scan_sees_every_form_of_use():
    tree = ast.parse(
        "import numpy as np\n"
        "import numpy._core.multiarray as ma\n"
        "from numpy import _core\n"
        "from numpy.linalg import _umath_linalg as ul, norm\n"
        "np._core.einsumfunc.bmm_einsum\n"
        "np.linalg.solve\n"
        "ul.inv\n"
        "_core.umath\n"
        "np.__version__\n"
        "np.einsum_path('i', x, optimize=False, einsum_call=True)\n"
        "norm(x, axis=0)\n")
    uses = numpy_uses(tree)
    assert {u for u in uses if is_private(u)} == {
        "numpy._core.multiarray", "numpy._core.einsumfunc.bmm_einsum",
        "numpy.linalg._umath_linalg.inv", "numpy._core.umath",
        "numpy.einsum_path(einsum_call=)"}
    assert {u for u in uses if not is_private(u)} == {
        "numpy.linalg.solve", "numpy.linalg.norm", "numpy.__version__",
        "numpy.einsum_path"}
