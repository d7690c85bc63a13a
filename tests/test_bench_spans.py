"""What the benchmark harness binds still exists.

``bench/spans.py`` times the program from outside by rebinding its names
(``Solver.check``, ``partition``, the coordinator's round phases, the queue
transport's ``send``/``recv``, ``worker_main``, ...).  A refactor that
renames one of them makes ``install`` raise; this test makes that a tier-1
failure instead of a benchmark-only one.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_leaves_every_binding_as_it_was(tmp_path):
    spans = _load_spans()
    from repro.distrib.cluster import ProcessCloud9Cluster

    patches = spans.install(spans.SpanTable(), str(tmp_path))
    try:
        assert patches
        # The round phases are wrapped where the coordinator calls them.
        for name in ("_start_workers", "_explore_phase", "_status_phase",
                     "_dispatch_transfer"):
            assert hasattr(getattr(ProcessCloud9Cluster, name), "__wrapped__")
    finally:
        spans.uninstall(patches)
    # The first patch of each binding recorded what it found there.
    found = {}
    for owner, attr, original in patches:
        found.setdefault((id(owner), attr), (owner, attr, original))
    moved = [attr for owner, attr, original in found.values()
             if getattr(owner, attr) is not original]
    assert moved == []
    assert list(tmp_path.iterdir()) == []
