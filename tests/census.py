"""Reachability census: which lines of ``src/repro`` the registered specs run.

Runs every registered spec on ``single`` and on a 3-worker ``cluster``
(20 000 instructions each) under a ``sys.settrace`` line collector, and
prints per package the lines that carry code and the share of them
reached.  A line carries code when a code object compiled from its module
names it; a module no run imports counts as reached nowhere.  This is a
script, not a test (pytest does not collect it), and it takes minutes::

    PYTHONPATH=src python tests/census.py [--instructions N] [--modules]
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import sys
import threading

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PREFIX = str(SRC)
reached = collections.defaultdict(set)


def _line(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PREFIX):
        return None
    reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def code_lines(path):
    """The lines every code object compiled from ``path`` names."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--modules", action="store_true",
                        help="also print one row per module")
    args = parser.parse_args()
    threading.settrace(_call)
    sys.settrace(_call)
    from repro.distrib import specs  # imported under the collector
    for name in specs.available_specs():
        for backend, options in (("single", {}), ("cluster", {"workers": 3})):
            specs.resolve_test(name).run(
                backend=backend, max_instructions=args.instructions, **options)
    sys.settrace(None)
    threading.settrace(None)
    packages = collections.defaultdict(lambda: [0, 0])
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        lines = code_lines(path)
        hit = len(lines & reached[str(path)])
        relative = path.relative_to(SRC)
        package = relative.parts[0] if len(relative.parts) > 1 else "repro"
        packages[package][0] += hit
        packages[package][1] += len(lines)
        rows.append((str(relative), hit, len(lines)))
    if args.modules:
        for module, hit, total in rows:
            print("%-32s %5d / %5d  %3.0f %%" % (module, hit, total,
                                                100.0 * hit / max(total, 1)))
    for package, (hit, total) in sorted(packages.items(),
                                        key=lambda item: -item[1][0] / item[1][1]):
        print("%-10s %5d / %5d  %3.0f %%" % (package, hit, total, 100.0 * hit / total))


if __name__ == "__main__":
    main()
