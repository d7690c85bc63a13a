"""``python -m repro.analysis``: check the wire messages against the protocol lock.

Usage::

    python -m repro.analysis [PATHS...]            # check (default: src)
    python -m repro.analysis --json                # machine-readable findings
    python -m repro.analysis --update-lock         # regenerate protocol.lock.json

Exit codes: 0 clean, 1 findings (or a refused ``--update-lock``), 2 usage
errors.  The CI gate runs the ``--json`` form (turning findings into
inline annotations) plus ``--update-lock`` followed by
``git diff --exit-code`` on the lock file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis import protocol
from repro.analysis.core import Finding, load_modules

__all__ = ["main", "run_analysis"]

DEFAULT_LOCK = "protocol.lock.json"


def run_analysis(paths: Sequence[str],
                 lock_path: str = DEFAULT_LOCK) -> List[Finding]:
    """Check the wire messages under ``paths`` against the protocol lock;
    returns the findings in report order."""
    modules, findings = load_modules(paths)
    findings.extend(protocol.check(modules, lock_path))
    findings.sort(key=lambda f: (f.path, f.line, f.checker, f.message))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static wire-protocol checker: message classes against "
                    "the committed protocol lock.")
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--lock", default=DEFAULT_LOCK, metavar="FILE",
                        help="protocol lock file (default: %(default)s)")
    parser.add_argument("--update-lock", action="store_true",
                        help="regenerate the protocol lock from the "
                             "current message set and exit")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON on stdout (same exit "
                             "codes); for CI annotation tooling")
    args = parser.parse_args(argv)

    paths = args.paths or ["src"]
    for path in paths:
        if not os.path.exists(path):
            print("error: no such path: %s" % path, file=sys.stderr)
            return 2

    if args.update_lock:
        modules, parse_findings = load_modules(paths)
        lock_data, _ = protocol.extract_protocol(modules)
        if not lock_data["messages"]:
            print("error: no wire-message modules found under %s"
                  % ", ".join(paths), file=sys.stderr)
            return 2
        try:
            previous = protocol.load_lock(args.lock)
        except protocol.LockError as exc:
            print("refusing to update: %s; restore it from version control "
                  "(a lock that cannot be compared against switches the "
                  "PROTO004 gate off)" % exc, file=sys.stderr)
            return 1
        lock, breaking = protocol.build_lock(lock_data, previous)
        if breaking:
            print("refusing to update %s: breaking change(s) at a "
                  "compatible version bump [PROTO004]" % args.lock,
                  file=sys.stderr)
            for change in breaking:
                print("  - %s" % change, file=sys.stderr)
            print("advance %s to %s (dropping old agents) or make the "
                  "change additive"
                  % (protocol.COMPAT_CONSTANT, lock["protocol_version"]),
                  file=sys.stderr)
            return 1
        protocol.write_lock(lock, args.lock)
        print("wrote %s: protocol version %s (compat floor %s), "
              "%d message classes"
              % (args.lock, lock["protocol_version"],
                 lock["compat_version"], len(lock["messages"])))
        for finding in parse_findings:
            print(finding.render(), file=sys.stderr)
        return 0

    findings = run_analysis(paths, lock_path=args.lock)
    if args.as_json:
        print(json.dumps({
            "findings": [{
                "checker": f.checker,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "hint": f.hint,
                "context": f.context,
            } for f in findings],
            "count": len(findings),
        }, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        print("%d finding(s)" % len(findings))
    return 1 if findings else 0
