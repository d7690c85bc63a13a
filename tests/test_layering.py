"""The package layering, as module-level imports state it.

``obs``/``lang`` <- ``solver`` <- ``engine`` <- {``posix``, ``cluster``} <-
``distrib`` (+ ``net``) <- ``api`` <- ``testing`` <- ``targets``, with the
lazy re-export helper ``_lazy`` at the bottom: a package
imports, at module level, only from its own layer or a lower one.  (An import
inside a function or under ``if TYPE_CHECKING:`` is a stated exception where
it stands.)
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LAYERS = [{"_lazy"}, {"obs", "lang"}, {"solver"}, {"engine"}, {"posix", "cluster"},
          {"distrib", "net"}, {"api"}, {"testing"}, {"targets"}]
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}


def _imported_packages(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and not node.level:
            names = ([node.module] if node.module != "repro"
                     else ["repro.%s" % alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = (name or "").split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]


def test_no_package_imports_from_a_higher_layer():
    upward = sorted(
        "%s imports repro.%s" % (path.relative_to(SRC), target)
        for package in RANK
        for path in ((SRC / package).rglob("*.py") if (SRC / package).is_dir()
                     else [SRC / ("%s.py" % package)])
        for target in _imported_packages(path)
        if RANK[target] > RANK[package])
    assert upward == []


def test_every_package_has_a_layer():
    packages = {p.name for p in SRC.iterdir() if (p / "__init__.py").exists()}
    modules = {p.stem for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert packages | modules == set(RANK)
