"""Shared machinery for the protocol checker: findings and source loading.

Everything here is plain stdlib ``ast`` work -- the analysis package never
imports the repro runtime, so it can check a tree that does not even import
(and fixture trees in tests that are not importable at all).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

__all__ = ["Finding", "SourceModule", "load_modules"]


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
    """One parsed source file."""

    path: str             # as reported in findings (posix slashes)
    tree: ast.Module


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
        modules.append(SourceModule(path=display, tree=tree))
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
