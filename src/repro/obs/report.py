"""Render a run's trace into the paper's evaluation views.

``python -m repro.obs.report trace.jsonl`` reads a JSONL trace produced
by :mod:`repro.obs.trace` and prints:

* **Coverage over time** (Fig. 8/11): an ASCII chart of coverage percent
  against trace time, one point per ``round_completed`` event (a
  :class:`~repro.obs.schema.RoundSnapshot` record; a point's ``paths``,
  ``candidates`` and ``workers`` are its ``paths_completed``,
  ``total_candidates`` and ``num_workers``).
* **Per-worker utilization** (Fig. 9/10): useful vs replayed instructions
  and idle rounds per worker, from the ``workers_detail`` payload of each
  round event.
* **Timeline** (Fig. 12 and the fault/elasticity story): every transfer,
  membership change, failure, checkpoint and bug, in order.

``--json`` emits the same analysis as one JSON object for scripting.
The reader tolerates a truncated final line, so a trace from a SIGKILLed
coordinator still renders.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.obs import schema
from repro.obs.trace import load_trace

__all__ = ["analyze_trace", "render_report", "main"]

_TIMELINE_EVENTS = (
    schema.RUN_STARTED, schema.JOB_TRANSFERRED, schema.WORKER_JOINED,
    schema.WORKER_LEFT, schema.WORKER_DIED, schema.WORKER_RESPAWNED,
    schema.JOBS_RECOVERED, schema.CHECKPOINT_WRITTEN,
    schema.HEARTBEAT_MISS, schema.BUG_FOUND, schema.TRACE_EVENTS_DROPPED,
    schema.RUN_FINISHED,
)


def analyze_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce raw events to the three report views (plain data, no text)."""
    coverage: List[Dict[str, float]] = []
    workers: Dict[int, Dict[str, int]] = {}
    timeline: List[Dict[str, Any]] = []
    run_info: Dict[str, Any] = {}
    summary: Dict[str, Any] = {}

    for event in events:
        name = event.get("event")
        if name == schema.RUN_STARTED:
            run_info = {k: v for k, v in event.items()
                        if k not in ("seq", "event")}
        elif name == schema.ROUND_COMPLETED:
            coverage.append({
                "ts": event.get("ts", 0.0),
                "round": event.get("round", len(coverage)),
                "coverage_percent": event.get("coverage_percent", 0.0),
                "paths": event.get("paths_completed", 0),
                "candidates": event.get("total_candidates", 0),
                "workers": event.get("num_workers", 0),
            })
            for wid, detail in (event.get("workers_detail") or {}).items():
                entry = workers.setdefault(int(wid), {
                    "useful": 0, "replay": 0, "rounds": 0, "idle_rounds": 0})
                useful = int(detail.get("useful", 0))
                replay = int(detail.get("replay", 0))
                entry["useful"] += useful
                entry["replay"] += replay
                entry["rounds"] += 1
                if not useful and not replay:
                    entry["idle_rounds"] += 1
        elif name == schema.RUN_FINISHED:
            summary = {k: v for k, v in event.items()
                       if k not in ("seq", "event")}
        if name in _TIMELINE_EVENTS:
            timeline.append(event)

    return {
        "run": run_info,
        "coverage_over_time": coverage,
        "worker_utilization": {
            wid: dict(stats, total=stats["useful"] + stats["replay"])
            for wid, stats in sorted(workers.items())
        },
        "timeline": timeline,
        "summary": summary,
        "event_count": len(events),
    }


def _ascii_chart(points: List[Dict[str, float]], width: int = 60,
                 height: int = 12) -> List[str]:
    """Coverage-percent-vs-time scatter as text rows, newest scale wins."""
    if not points:
        return ["  (no round_completed events)"]
    max_ts = max(p["ts"] for p in points) or 1.0
    max_cov = max(max(p["coverage_percent"] for p in points), 1.0)
    grid = [[" "] * width for _ in range(height)]
    for p in points:
        x = min(int(p["ts"] / max_ts * (width - 1)), width - 1)
        y = min(int(p["coverage_percent"] / max_cov * (height - 1)), height - 1)
        grid[height - 1 - y][x] = "*"
    rows = []
    for i, row in enumerate(grid):
        label = f"{max_cov * (height - 1 - i) / (height - 1):5.1f}% |"
        rows.append(label + "".join(row))
    rows.append(" " * 7 + "+" + "-" * width)
    rows.append(" " * 8 + f"0s{' ' * (width - 12)}{max_ts:8.2f}s")
    return rows


def _describe(event: Dict[str, Any]) -> str:
    name = event.get("event", "?")
    skip = {"seq", "ts", "event", "run", "wts"}
    detail = " ".join(f"{k}={event[k]}" for k in event if k not in skip)
    return f"  {event.get('ts', 0.0):9.3f}s  {name:<20s} {detail}".rstrip()


def render_report(analysis: Dict[str, Any]) -> str:
    lines: List[str] = []
    run = analysis["run"]
    lines.append("== Run ==")
    if run:
        detail = " ".join(f"{k}={v}" for k, v in run.items()
                          if k not in ("ts",))
        lines.append(f"  {detail}")
    else:
        lines.append("  (no run_started event)")

    lines.append("")
    lines.append("== Coverage over time ==")
    lines.extend(_ascii_chart(analysis["coverage_over_time"]))
    rounds = analysis["coverage_over_time"]
    if rounds:
        last = rounds[-1]
        lines.append(f"  final: {last['coverage_percent']:.1f}% after "
                     f"{int(last['round']) + 1} rounds, "
                     f"{last['paths']} paths, ts={last['ts']:.2f}s")

    lines.append("")
    lines.append("== Per-worker utilization ==")
    util = analysis["worker_utilization"]
    if util:
        lines.append(f"  {'worker':>6s} {'useful':>10s} {'replay':>10s} "
                     f"{'overhead':>9s} {'rounds':>7s} {'idle':>5s}")
        for wid, stats in util.items():
            total = stats["total"]
            overhead = stats["replay"] / total if total else 0.0
            lines.append(
                f"  {wid:>6d} {stats['useful']:>10d} {stats['replay']:>10d} "
                f"{overhead:>8.1%} {stats['rounds']:>7d} "
                f"{stats['idle_rounds']:>5d}")
    else:
        lines.append("  (no per-worker detail in trace)")

    lines.append("")
    lines.append("== Timeline ==")
    timeline = analysis["timeline"]
    if timeline:
        lines.extend(_describe(e) for e in timeline)
    else:
        lines.append("  (no timeline events)")

    summary = analysis["summary"]
    if summary:
        lines.append("")
        lines.append("== Summary ==")
        detail = " ".join(f"{k}={v}" for k, v in summary.items()
                          if k not in ("ts", "run", "worker"))
        lines.append(f"  {detail}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a repro trace (JSONL) into coverage-over-time, "
                    "per-worker utilization and event-timeline views.")
    parser.add_argument("trace", help="path to a trace.jsonl file")
    parser.add_argument("--json", action="store_true",
                        help="emit the analysis as JSON instead of text")
    args = parser.parse_args(argv)
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2
    analysis = analyze_trace(events)
    try:
        if args.json:
            print(json.dumps(analysis, indent=2, default=str))
        else:
            print(render_report(analysis))
        sys.stdout.flush()  # a reader that left (``| head``) raises here
    except BrokenPipeError:
        # The Python docs' SIGPIPE recipe: no second error at exit, code 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    sys.exit(main())
