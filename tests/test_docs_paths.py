"""Every file the docs, the CI workflow and the module docstrings name exists.

A script cited by the README but deleted from the tree, or a design note a
docstring points at that was never written, is found here rather than by the
reader who goes looking for it.
"""

import ast
import re
from pathlib import Path

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
