"""Shared machinery for the static checkers: findings, source loading, AST helpers.

Everything here is plain stdlib ``ast`` work -- the analysis package never
imports the repro runtime, so it can check a tree that does not even import
(and fixture trees in tests that are not importable at all).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Finding", "SourceModule", "load_modules", "qualname_index",
           "enclosing_context", "is_suppressed", "filter_suppressed",
           "attr_chain"]


@dataclass(frozen=True)
class Finding:
    """One checker hit: where, what, and how to fix it."""

    checker: str          # stable id, e.g. "PROTO001"
    path: str             # path as given on the command line (posix slashes)
    line: int
    message: str
    hint: str = ""
    #: Enclosing ``Class.function`` qualname ("" at module level).
    context: str = ""

    def render(self) -> str:
        text = "%s:%d: [%s] %s" % (self.path, self.line, self.checker,
                                   self.message)
        if self.hint:
            text += " (fix: %s)" % self.hint
        return text


@dataclass
class SourceModule:
    """One parsed source file plus everything checkers need about it."""

    path: str             # as reported in findings (posix slashes)
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: Map from every AST node to its parent (filled at load time).
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _fill_parents(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def load_modules(paths: Sequence[str]) -> Tuple[List[SourceModule], List[Finding]]:
    """Parse every ``*.py`` under ``paths`` (files or directories).

    Returns the parsed modules plus findings for files that do not parse
    (checker id ``ANA001`` -- a syntax error is a finding, not a crash).
    """
    modules: List[SourceModule] = []
    findings: List[Finding] = []
    for filename in sorted(_iter_python_files(paths)):
        display = Path(filename).as_posix()
        try:
            source = Path(filename).read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding("ANA001", display, 1,
                                    "cannot read file: %s" % exc))
            continue
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            findings.append(Finding("ANA001", display, exc.lineno or 1,
                                    "syntax error: %s" % exc.msg))
            continue
        modules.append(SourceModule(path=display, tree=tree,
                                    lines=source.splitlines(),
                                    parents=_fill_parents(tree)))
    return modules, findings


def _iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith(".")
                                 and d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def qualname_index(module: SourceModule) -> Dict[ast.AST, str]:
    """Map every ClassDef/FunctionDef node to its dotted qualname."""
    index: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                qualname = (prefix + "." + child.name) if prefix else child.name
                index[child] = qualname
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(module.tree, "")
    return index


def enclosing_context(module: SourceModule, node: ast.AST,
                      index: Optional[Dict[ast.AST, str]] = None) -> str:
    """Qualname of the nearest enclosing class/function (may be "")."""
    if index is None:
        index = qualname_index(module)
    current: Optional[ast.AST] = node
    while current is not None:
        if current in index:
            return index[current]
        current = module.parents.get(current)
    return ""


#: Marker accepted in a trailing comment to waive findings on that line:
#: ``# analysis-ignore`` (all checkers) or ``# analysis-ignore[CONC001]``.
IGNORE_MARKER = "analysis-ignore"


def is_suppressed(module: SourceModule, finding: Finding) -> bool:
    line = module.source_line(finding.line)
    marker = line.find(IGNORE_MARKER)
    if marker < 0:
        return False
    rest = line[marker + len(IGNORE_MARKER):]
    if rest.startswith("["):
        listed = rest[1:rest.find("]")] if "]" in rest else ""
        ids = {part.strip() for part in listed.split(",") if part.strip()}
        return finding.checker in ids
    return True


def attr_chain(node: ast.AST) -> str:
    """Dotted-source text of a Name/Attribute chain ("self._send_lock")."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    elif parts:
        parts.append("<expr>")
    else:
        return ""
    return ".".join(reversed(parts))


def filter_suppressed(modules: Iterable[SourceModule],
                      findings: Iterable[Finding]) -> List[Finding]:
    """Drop findings waived by an inline ``analysis-ignore`` comment."""
    by_path = {m.path: m for m in modules}
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and is_suppressed(module, finding):
            continue
        kept.append(finding)
    return kept
