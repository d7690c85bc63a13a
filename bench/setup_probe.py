"""One set-up, in a fresh interpreter: ``import repro`` -> ``resolve_test`` ->
executor and initial state built.  ``run.py`` starts this as a subprocess.

The probe calibrates itself: the reference kernel runs in this process right
before and right after the set-up, so both see the same core and caches (a
kernel timed by the parent around the whole subprocess followed the child's
speed poorly).  Prints one JSON object: raw and normalised seconds of the
set-up, and the seconds spent in the layers it crosses.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def set_up(workload_name: str) -> dict:
    started = time.perf_counter()
    import repro  # noqa: F401 - the import is what is being timed
    layers = {"import_s": time.perf_counter() - started,
              "compile_s": 0.0, "install_s": 0.0}

    from repro.distrib import specs
    from repro.testing import symbolic_test
    from workloads import BY_NAME

    def timed(key, function):
        def wrapper(*args, **kwargs):
            begun = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                layers[key] += time.perf_counter() - begun
        return wrapper

    symbolic_test.compile_program = timed("compile_s", symbolic_test.compile_program)
    symbolic_test.install_posix_model = timed(
        "install_s", symbolic_test.install_posix_model)

    workload = BY_NAME[workload_name]
    test = specs.resolve_test(workload.spec, **workload.params)
    executor = test.build_executor()
    state = test.build_initial_state(executor)
    if not state.is_running:
        raise RuntimeError("initial state is not running")
    return layers


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from calib import bracketed
    raw_s, norm_s, measured = bracketed(lambda: set_up(sys.argv[1]))
    print(json.dumps(dict(measured, raw_s=raw_s, norm_s=norm_s)))
