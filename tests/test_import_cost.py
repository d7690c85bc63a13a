"""A set-up imports what its run uses, and the lazy package surfaces keep
every name they export.

Every process a run starts -- the user's, each worker, each tcp agent --
imports ``repro`` and rebuilds one test from its spec, so what that imports
is paid once per process.  These are set checks in a fresh interpreter, not
timings.
"""

import importlib
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

LAZY_PACKAGES = ["repro", "repro.cluster", "repro.distrib", "repro.net",
                 "repro.testing"]

#: Exported constants, which carry no ``__module__``.
CONSTANTS = {"__version__": "repro",
             "DEFAULT_MAX_FRAME_SIZE": "repro.net.framing",
             "PROTOCOL_VERSION": "repro.net.transport"}


@pytest.fixture(scope="module")
def footprint():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestSetUpFootprint:
    def test_import_repro_imports_only_the_lazy_helper(self, footprint):
        assert footprint["import"] == ["repro._lazy"]

    def test_resolving_a_spec_imports_its_one_target(self, footprint):
        loaded = set(footprint["resolve"])
        assert {m for m in loaded if m.startswith("repro.targets")} == {
            "repro.targets", "repro.targets.memcached"}

    def test_resolving_a_spec_skips_the_backend_only_modules(self, footprint):
        loaded = set(footprint["resolve"])
        assert loaded & {"repro.net.server", "repro.distrib.loopback",
                         "repro.cluster.worker", "uuid"} == set()


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazySurfaces:
    def test_every_exported_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, type(module)):
                assert value.__name__ == "%s.%s" % (package, name)
                continue
            defining = importlib.import_module(
                CONSTANTS.get(name) or value.__module__)
            assert getattr(defining, name) is value, (package, name)

    def test_dir_lists_every_exported_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_an_unknown_name_is_an_attribute_error_naming_the_package(
            self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            module.no_such_name  # noqa: B018 - the read is the test


def test_a_package_name_follows_its_defining_module(monkeypatch):
    """The package reads the defining module on every access, so it never
    keeps a copy that module has rebound."""
    import repro.distrib
    from repro.distrib import loopback

    class Replacement:
        pass

    monkeypatch.setattr(loopback, "Cloud9Cluster", Replacement)
    assert repro.distrib.Cloud9Cluster is Replacement
    monkeypatch.undo()
    assert repro.distrib.Cloud9Cluster is loopback.Cloud9Cluster


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
