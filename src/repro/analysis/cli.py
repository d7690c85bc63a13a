"""``python -m repro.analysis``: run the distributed-invariants checkers.

Usage::

    python -m repro.analysis [PATHS...]            # check (default: src)
    python -m repro.analysis --json                # machine-readable findings
    python -m repro.analysis --update-lock         # regenerate protocol.lock.json
    python -m repro.analysis --write-baseline      # adopt current findings

Exit codes: 0 clean (or everything grandfathered), 1 findings, 2 usage
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

from repro.analysis import baseline as baseline_module
from repro.analysis import concurrency, determinism, protocol, traceschema
from repro.analysis.core import Finding, filter_suppressed, load_modules
from repro.analysis.program import ProjectIndex

__all__ = ["main", "run_analysis"]

DEFAULT_BASELINE = "analysis_baseline.json"
DEFAULT_LOCK = "protocol.lock.json"

#: checker-id prefix -> family description (for --select validation).
CHECKER_FAMILIES = {
    "PROTO": "wire-protocol lock (messages vs PROTOCOL_VERSION, semver)",
    "TRACE": "trace-event schema registry drift",
    "CONC": "blocking calls under locks, cross-module lock-order cycles",
    "DET": "nondeterminism in schedule/solver decision paths",
    "ANA": "analysis infrastructure (unparseable files)",
}


def run_analysis(paths: Sequence[str], lock_path: str = DEFAULT_LOCK,
                 select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run every (selected) checker over ``paths``; returns raw findings
    (before baseline filtering, after inline-ignore filtering)."""
    modules, findings = load_modules(paths)
    families = {f.upper() for f in select} if select else None
    index = ProjectIndex(modules)

    def wanted(prefix: str) -> bool:
        return families is None or prefix in families

    if wanted("PROTO"):
        findings.extend(protocol.check(modules, lock_path))
    if wanted("TRACE"):
        findings.extend(traceschema.check(modules))
    if wanted("CONC"):
        findings.extend(concurrency.check(modules, index))
    if wanted("DET"):
        findings.extend(determinism.check(modules))
    findings = filter_suppressed(modules, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.checker, f.message))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static distributed-invariants checker: protocol lock, "
                    "trace-schema drift, concurrency and determinism lints.")
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        metavar="FILE",
                        help="baseline of grandfathered findings "
                             "(default: %(default)s; missing file = empty)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignoring the baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the new baseline "
                             "and exit 0 (adopt the gate / prune stale "
                             "entries)")
    parser.add_argument("--lock", default=DEFAULT_LOCK, metavar="FILE",
                        help="protocol lock file (default: %(default)s)")
    parser.add_argument("--update-lock", action="store_true",
                        help="regenerate the protocol lock from the "
                             "current message set and exit")
    parser.add_argument("--select", metavar="FAMILIES",
                        help="comma-separated checker families to run "
                             "(%s)" % ", ".join(sorted(CHECKER_FAMILIES)))
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings as JSON on stdout (same exit "
                             "codes); for CI annotation tooling")
    args = parser.parse_args(argv)

    paths = args.paths or ["src"]
    for path in paths:
        if not os.path.exists(path):
            print("error: no such path: %s" % path, file=sys.stderr)
            return 2

    select: Optional[List[str]] = None
    if args.select:
        select = [part.strip().upper() for part in args.select.split(",")
                  if part.strip()]
        unknown = [part for part in select if part not in CHECKER_FAMILIES]
        if unknown:
            print("error: unknown checker families: %s (known: %s)"
                  % (", ".join(unknown), ", ".join(sorted(CHECKER_FAMILIES))),
                  file=sys.stderr)
            return 2

    if args.update_lock:
        modules, parse_findings = load_modules(paths)
        lock_data, _ = protocol.extract_protocol(modules)
        if not lock_data["messages"]:
            print("error: no wire-message modules found under %s"
                  % ", ".join(paths), file=sys.stderr)
            return 2
        previous = protocol.load_lock(args.lock)
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

    findings = run_analysis(paths, lock_path=args.lock, select=select)

    if args.write_baseline:
        count = baseline_module.write_baseline(findings, args.baseline)
        print("wrote %s with %d grandfathered finding(s)"
              % (args.baseline, count))
        return 0

    suppressed = 0
    stale: List[dict] = []
    if not args.no_baseline:
        entries = baseline_module.load_baseline(args.baseline)
        findings, suppressed, stale = baseline_module.apply_baseline(
            findings, entries)

    if args.as_json:
        print(json.dumps({
            "findings": [{
                "checker": f.checker,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "hint": f.hint,
                "context": f.context,
                "fingerprint": f.fingerprint(),
            } for f in findings],
            "count": len(findings),
            "suppressed": suppressed,
            "stale": stale,
        }, indent=2, sort_keys=True))
        return 1 if findings else 0

    for finding in findings:
        print(finding.render())
    for entry in stale:
        print("note: stale baseline entry (no longer matches): [%s] %s: %s"
              % (entry.get("checker"), entry.get("path"),
                 entry.get("message")), file=sys.stderr)
    summary = "%d finding(s)" % len(findings)
    if suppressed:
        summary += ", %d grandfathered by %s" % (suppressed, args.baseline)
    if stale:
        summary += (", %d stale baseline entr%s (run --write-baseline to "
                    "prune)" % (len(stale),
                                "y" if len(stale) == 1 else "ies"))
    print(summary)
    return 1 if findings else 0
