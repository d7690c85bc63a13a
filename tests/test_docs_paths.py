"""Every file the docs, the CI workflow and the module docstrings name exists,
and so does every name a module docstring cross-references.

A script cited by the README but deleted from the tree, or a design note a
docstring points at that was never written, is found here rather than by the
reader who goes looking for it.  So is a ``:class:`` reference to a name
that moved: a package re-exports nothing, so its docstring -- the layer's
map -- must name each class by the module that defines it.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = ["README.md", ".github/workflows/ci.yml", "pyproject.toml",
             ".claude/skills/verify/SKILL.md"]
DOCSTRING_TREES = ["src", "benchmarks"]

#: ``benchmarks/…py``, ``tests/…py``, ``examples/…py``, anything under
#: ``bench/``, and bare ``*.md`` / ``*.json`` names (the repository root).
PATH = re.compile(r"(?<![\w/.-])(?:(?:benchmarks|tests|examples)/[\w/.-]*\.py"
                  r"|bench/[\w/.-]*"
                  r"|[\w.-]+\.(?:md|json))\b")


def _texts():
    for name in DOCUMENTS:
        yield name, (ROOT / name).read_text()
    for tree in DOCSTRING_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            docstring = ast.get_docstring(ast.parse(path.read_text()))
            if docstring:
                yield str(path.relative_to(ROOT)), docstring


def test_every_named_path_exists():
    # What a documented command leaves behind (CI's findings.json) is named
    # in .gitignore, not committed.
    produced = set((ROOT / ".gitignore").read_text().split())
    missing = sorted(
        "%s names %s" % (source, match.group(0))
        for source, text in _texts()
        for match in PATH.finditer(text)
        if match.group(0) not in produced
        and not (ROOT / match.group(0)).exists())
    assert missing == []


SRC = ROOT / "src" / "repro"
PACKAGES = sorted(".".join(("repro",) + path.parent.relative_to(SRC).parts)
                  for path in SRC.rglob("__init__.py"))

#: A Sphinx cross-reference: ``:class:`Name```, ``:meth:`~mod.Cls.meth```,
#: ``:attr:`text <mod.Cls.attr>```.
ROLE = re.compile(r":(mod|class|func|meth|attr|data|exc):`([^`]+)`")


def _resolves(target, module):
    """Whether ``target`` names something, read as Sphinx would from
    ``module``: a dotted path from ``repro``, else relative to ``module``."""
    target = target.split("<")[-1].rstrip(">").strip().lstrip("~")
    if not target.startswith("repro."):
        target = "%s.%s" % (module, target)
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
        if cut == len(parts):
            return True
        name = parts[-1]
        # An instance attribute is assigned in the class, not defined on it.
        return owner is not None and (
            hasattr(owner, name) or inspect.isclass(owner) and re.search(
                r"self\.%s\b[^=]*=" % name, inspect.getsource(owner)))
    return False


@pytest.mark.parametrize("package", PACKAGES)
def test_every_cross_reference_in_a_package_exists(package):
    directory = SRC.joinpath(*package.split(".")[1:])
    missing = []
    for path in sorted(directory.glob("*.py")):
        module = package if path.stem == "__init__" else "%s.%s" % (
            package, path.stem)
        docstring = ast.get_docstring(ast.parse(path.read_text())) or ""
        missing += ["%s names %s" % (module, match.group(0))
                    for match in ROLE.finditer(docstring)
                    if not _resolves(match.group(2), module)]
    assert missing == []
