"""A set-up imports what its run uses.

Every process a run starts -- the user's, each worker, each tcp agent --
imports ``repro`` and rebuilds one test from its spec, so what that imports
is paid once per process.  These are set checks in a fresh interpreter, not
timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.distrib import specs

from conftest import BUILTIN_SPECS

SRC = Path(__file__).resolve().parent.parent / "src"

#: Imports ``repro``, then resolves one spec; prints ``sys.modules`` after each.
FOOTPRINT = """
import json, sys
import repro
after_import = sorted(m for m in sys.modules if m.startswith("repro."))
from repro.distrib import specs
specs.resolve_test("memcached-packets", num_packets=1, packet_size=1)
print(json.dumps({"import": after_import, "resolve": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def footprint():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestSetUpFootprint:
    def test_import_repro_imports_no_submodule(self, footprint):
        assert footprint["import"] == []

    def test_resolving_a_spec_imports_its_one_target(self, footprint):
        loaded = set(footprint["resolve"])
        assert {m for m in loaded if m.startswith("repro.targets")} == {
            "repro.targets", "repro.targets.memcached"}

    def test_resolving_a_spec_skips_the_backend_only_modules(self, footprint):
        loaded = set(footprint["resolve"])
        assert loaded & {"repro.net.server", "repro.distrib.loopback",
                         "repro.cluster.worker", "uuid"} == set()


def test_a_target_module_imports_by_name():
    from repro.targets import rsync
    assert rsync.__name__ == "repro.targets.rsync"


def test_available_specs_lists_every_stock_spec(monkeypatch):
    from repro.targets import coreutils
    monkeypatch.setattr(specs, "_REGISTRY", {})  # forget other tests' specs
    assert specs.available_specs() == BUILTIN_SPECS
    assert set(BUILTIN_SPECS) == set(specs._BUILTINS) | {
        "coreutils-%s" % utility for utility in coreutils.utility_names()}


def test_an_unknown_coreutils_utility_is_an_unknown_spec():
    with pytest.raises(ValueError, match="unknown test spec 'coreutils-nope'"):
        specs.get_spec("coreutils-nope")
