"""Does the benchmark repeat on this host?  Run it twice on the same tree.

    python bench/repeat_check.py --sets 2 --runs 10 [--workload NAME ...]

Each set runs every workload ``--runs`` times, each time with another seed,
exactly as the driver does.  Per workload and end-to-end metric it prints the
median of each set, how far the later median is *worse* than the first, and
the spread of each set (distance between the first and third quartile as a
share of the median) -- for the calibrated metric and, beside it, for the raw
seconds it was derived from.  It fails if a spread or a worsening exceeds the
metric's bound in ``BENCHMARK.json``, or if an exact metric differs at all
between two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The raw quantity each calibrated metric is derived from (in the info line).
RAW_OF = {"norm_wall_s": "raw_wall_s", "setup_s": "raw_setup_s"}
#: Metrics that must be bit-identical whenever the seed is.
EXACT = ("useful_work_pct",)


def spread_pct(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return 100.0 * (quartiles[2] - quartiles[0]) / statistics.median(values)


def one_run(command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, float]:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit("%s seed %d: exit code %d\n%s"
                         % (workload, seed, done.returncode, done.stderr))
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect\n%s" % (workload, seed, done.stderr))
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    info = json.loads(lines[-2])["info"]
    values.update({raw: info[raw] for raw in RAW_OF.values()})
    return values


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (default: all)")
    parser.add_argument("--dump", help="also write every run's values here (JSON)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    # sets[s][workload][metric] -> one value per run
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    for index in range(args.sets):
        sets.append({})
        for workload in workloads:
            runs = [one_run(benchmark["command"], workload, seed,
                            benchmark["run_seconds"])
                    for seed in range(args.runs)]
            sets[-1][workload] = {name: [run[name] for run in runs]
                                  for name in runs[0]}
            print("set %d %s done" % (index, workload), file=sys.stderr)

    if args.dump:
        with open(args.dump, "w") as handle:
            json.dump(sets, handle, indent=1)

    failures = 0
    print("%-20s %-24s %s  %8s %6s  %s  %s"
          % ("workload", "metric", "medians per set".ljust(12 * args.sets),
             "worse %", "bound", "spread % per set", "raw spread % per set"))
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], 100.0 * metric["bound"]
            series = [one_set[workload][name] for one_set in sets]
            medians = [statistics.median(values) for values in series]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = max(100.0 * sign * (later - medians[0]) / medians[0]
                        for later in medians[1:]) if len(medians) > 1 else 0.0
            spreads = [spread_pct(values) for values in series]
            raw = RAW_OF.get(name)
            raw_spreads = ([spread_pct(one_set[workload][raw]) for one_set in sets]
                           if raw else [])
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            if name in EXACT and any(values != series[0] for values in series):
                bad = True
            failures += bad
            print("%-20s %-24s %s  %8.2f %6.1f  %-16s  %-16s %s" % (
                workload, name,
                " ".join("%11.4f" % m for m in medians), worse, bound,
                " ".join("%.2f" % s for s in spreads),
                " ".join("%.2f" % s for s in raw_spreads),
                "FAIL" if bad else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
