"""Exploration is a pure function of program and seed: the hash-seed differential.

Cloud9 moves a job by shipping its path and re-executing it on the receiving
worker (§3.2), so every decision along a path -- which state runs next, which
branch forks first, what the solver answers -- must come out the same in any
process.  This test checks that by effect.  Two child processes, identical
but for ``PYTHONHASHSEED``, run every registered spec on ``single`` and on a
3-worker ``cluster``; a decision that leans on set order, ``hash()`` of a
string or ``id()`` shows as a spec, a backend and a component that differ.

The child is this module run as a script::

    PYTHONPATH=src PYTHONHASHSEED=0 python tests/test_determinism.py OUT_DIR

prints one JSON line per (spec, backend): a digest of each component.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.api import ExplorationLimits
from repro.distrib import specs
from repro.obs.trace import load_trace

from conftest import BUILTIN_SPECS

#: Small enough that all specs run in seconds; rounds of 10 instructions make
#: the cluster runs balance and transfer (at the default 500 every run ends
#: in its first round).
MAX_INSTRUCTIONS = 60
BACKENDS = {
    "single": {},
    "cluster": {"workers": 3, "instructions_per_round": 10},
}
#: Trace keys that read a clock or name the run; nothing else may differ.
CLOCK_FIELDS = frozenset({
    "ts", "wts", "run", "elapsed", "duration", "wall_time",
    "round_time_p50", "round_time_p99", "latency_p50", "latency_p99"})
HASH_SEEDS = ("0", "1")
CHILD_TIMEOUT = 240.0


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _explore(spec: str, backend: str, trace_path: str) -> dict:
    """Run ``spec`` on ``backend``; one digest per component of the result."""
    result = specs.resolve_test(spec).run(
        backend=backend,
        limits=ExplorationLimits(max_instructions=MAX_INSTRUCTIONS,
                                 trace_path=trace_path),
        **BACKENDS[backend])
    trace = [{key: value for key, value in record.items()
              if key not in CLOCK_FIELDS}
             for record in load_trace(trace_path)]
    return {
        "paths": _digest(sorted(case.fork_trace
                                for case in result.test_cases)),
        "inputs": _digest([[[name, value.hex()]
                            for name, value in case.inputs.items()]
                           for case in result.test_cases]),
        "bugs": _digest([bug.summary() for bug in result.bugs]),
        "coverage": _digest(sorted(result.covered_lines)),
        "trace": _digest(trace),
    }


def _child_main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for spec in specs.available_specs():
        for backend in BACKENDS:
            trace_path = os.path.join(out_dir, "%s-%s.jsonl" % (spec, backend))
            print(json.dumps({"spec": spec, "backend": backend,
                              "digests": _explore(spec, backend, trace_path)}),
                  flush=True)


def _run_children(tmp_path: Path) -> dict:
    """Both children at once; ``hash seed -> {(spec, backend): digests}``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    children = {}
    try:
        for seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            children[seed] = subprocess.Popen(
                [sys.executable, __file__, str(tmp_path / seed)], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        runs = {}
        for seed, child in children.items():
            out, err = child.communicate(timeout=CHILD_TIMEOUT)
            assert child.returncode == 0, (
                "PYTHONHASHSEED=%s child failed:\n%s" % (seed, err))
            runs[seed] = {(record["spec"], record["backend"]):
                          record["digests"]
                          for record in map(json.loads, out.splitlines())}
        return runs
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()


def test_exploration_does_not_depend_on_the_hash_seed(tmp_path):
    runs = _run_children(tmp_path)
    first, second = (runs[seed] for seed in HASH_SEEDS)
    # A child starts with the stock specs only: no test module runs there.
    expected = {(spec, backend) for spec in BUILTIN_SPECS
                for backend in BACKENDS}
    assert set(first) == expected == set(second)
    differences = ["%s/%s: %s" % (spec, backend, component)
                   for spec, backend in sorted(expected)
                   for component, digest in first[spec, backend].items()
                   if second[spec, backend][component] != digest]
    assert not differences, (
        "exploration differs between PYTHONHASHSEED=%s and =%s:\n  %s"
        % (HASH_SEEDS + ("\n  ".join(differences),)))


if __name__ == "__main__":
    _child_main(sys.argv[1])
