"""The committed oracle: what every unit must produce.

``expected.json`` holds, per workload at seed 0, the results (paths, a digest
of the covered lines, the bug summaries, ``exhausted``) and the exact work
counters (useful and replay instructions, solver queries, rounds, states
transferred).  ``run.py`` only reads it.  Regenerate it deliberately with::

    PYTHONHASHSEED=0 python bench/oracle.py --write

which runs every workload once and, before writing, explores each exhaustive
target again on the in-process ``cluster`` backend: an independent
coordinator that must reach the same paths, coverage and bugs.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: What an exploration yields; equal in any search order once the tree is
#: explored in full.
RESULT_KEYS = ("paths", "coverage", "bugs", "exhausted")
#: Exact work counters; they depend on the search order.
COUNTER_KEYS = ("useful_instructions", "replay_instructions",
                "solver_queries", "rounds", "states_transferred")


def load_expected() -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["workloads"]


def mismatches(workload, seed: int, outcome: Dict[str, object],
               expected: Dict[str, object]) -> List[str]:
    """Differences between one unit's outcome and the oracle (empty = correct).

    Off seed 0 a seeded workload explores in another order, so only what no
    order can change is compared: everything a full exploration yields, or,
    under a budget, that the budget was spent.
    """
    if seed == 0 or not workload.seeded:
        keys = RESULT_KEYS + COUNTER_KEYS
    elif workload.exhaustive:
        keys = RESULT_KEYS + ("useful_instructions",)
    else:
        keys = ("exhausted", "useful_instructions")
    return ["%s: got %r, expected %r" % (key, outcome[key], expected[key])
            for key in keys if outcome[key] != expected[key]]


def _generate() -> Dict[str, Dict[str, object]]:
    from repro.distrib import specs
    from workloads import WORKLOADS, outcome_of, run_unit

    table: Dict[str, Dict[str, object]] = {}
    for workload in WORKLOADS:
        outcome = outcome_of(run_unit(workload, seed=0))
        again = outcome_of(run_unit(workload, seed=0))
        if again != outcome:
            raise SystemExit("%s is not deterministic: %r vs %r"
                             % (workload.name, outcome, again))
        if workload.exhaustive:
            test = specs.resolve_test(workload.spec, **workload.params)
            cross = outcome_of(test.run(backend="cluster", workers=3))
            for key in RESULT_KEYS:
                if cross[key] != outcome[key]:
                    raise SystemExit(
                        "%s: backend 'cluster' disagrees on %s: %r vs %r"
                        % (workload.name, key, cross[key], outcome[key]))
        table[workload.name] = outcome
        print("%s: %s" % (workload.name, json.dumps(outcome)), file=sys.stderr)
    return table


def main(argv: List[str]) -> int:
    if argv != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("set PYTHONHASHSEED=0: the oracle must not depend "
                         "on this process's hash seed")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    table = _generate()
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"seed": 0, "workloads": table}, handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
