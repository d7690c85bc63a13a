"""The test-spec registry: names that worker processes can rebuild tests from.

A :class:`~repro.testing.symbolic_test.SymbolicTest` holds a compiled program
and (often) setup closures, neither of which pickles, so a process-based
backend cannot ship the test object itself.  Instead it ships a *spec*: the
registered name of a factory plus the keyword arguments it was called with.
Every worker process imports this registry, calls :func:`resolve_test` with
the shipped ``(spec_name, spec_params)`` pair, and ends up with its own
private program, executor, solver and strategy -- the shared-nothing worker
the paper's architecture requires.  From then on, only ``(spec, path)`` jobs
and status/transfer messages cross the process boundary.

Every target under :mod:`repro.targets` is pre-registered (lazily, on first
lookup).  User code adds its own with :func:`register_spec`; when using the
``"spawn"`` start method, list the registering module in
``ProcessClusterConfig.spec_modules`` so child processes import it too
(``"fork"``, the default where available, inherits the parent's registry).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoid import cycle at module load
    from repro.testing.symbolic_test import SymbolicTest

SpecFactory = Callable[..., "SymbolicTest"]

_REGISTRY: Dict[str, SpecFactory] = {}
_LOCK = threading.Lock()
_BUILTINS_LOADED = False

__all__ = ["register_spec", "get_spec", "resolve_test", "available_specs"]


def register_spec(name: str, factory: SpecFactory,
                  replace: bool = False) -> SpecFactory:
    """Register a named symbolic-test factory.

    The factory must be importable/definable in every worker process and
    accept only plain-data keyword arguments -- None, bools, numbers,
    strings, bytes, and lists, tuples and str-keyed dicts of them -- which
    forked workers receive pickled and tcp agents as JSON
    (:mod:`repro.net.framing`).  Given the same arguments it must build the
    same program (path replay across processes relies on deterministic
    fork structure).
    """
    if not name or not isinstance(name, str):
        raise ValueError("spec name must be a non-empty string")
    if not callable(factory):
        raise TypeError("spec factory must be callable, got %r" % (factory,))
    with _LOCK:
        if not replace and name in _REGISTRY:
            raise ValueError("spec %r is already registered "
                             "(pass replace=True to override)" % name)
        _REGISTRY[name] = factory
    return factory


def get_spec(name: str) -> SpecFactory:
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown test spec %r (available: %s); register it with "
            "repro.distrib.specs.register_spec" %
            (name, ", ".join(available_specs()))) from None


def resolve_test(name: str, **params: object) -> "SymbolicTest":
    """Build the named test and stamp it with its spec reference.

    The stamped ``spec_name``/``spec_params`` are what lets
    ``test.run(backend="process")`` ship the test to worker processes.
    """
    test = get_spec(name)(**params)
    test.spec_name = name
    test.spec_params = dict(params)
    return test


def available_specs() -> List[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


# -- built-in specs: everything under repro/targets/ ------------------------------------


def _ensure_builtins() -> None:
    """Register the stock targets on first use.

    Deferred because importing :mod:`repro.targets` pulls in the testing and
    api layers; doing it at module-import time would create a cycle.
    """
    global _BUILTINS_LOADED
    with _LOCK:
        if _BUILTINS_LOADED:
            return
        from repro.targets import (
            bandicoot, coreutils, curl, ghttpd, httpd, libevent, lighttpd,
            memcached, pbzip, printf, prodcons, rsync, testcmd)
        from repro.targets.lighttpd import (
            VERSION_1_4_12, VERSION_1_4_13, VERSION_FIXED)

        def _lighttpd_factory(version):
            def factory(**params):
                return lighttpd.make_symbolic_fragmentation_test(version, **params)
            return factory

        def _coreutils_factory(utility):
            def factory(**params):
                return coreutils.make_utility_test(utility, **params)
            return factory

        builtins: Dict[str, SpecFactory] = {
            "printf": printf.make_symbolic_test,
            "testcmd": testcmd.make_symbolic_test,
            "memcached-packets": memcached.make_symbolic_packets_test,
            "memcached-binary": memcached.make_binary_suite_test,
            "memcached-fault": memcached.make_fault_injection_test,
            "memcached-udp-hang": memcached.make_udp_hang_test,
            "ghttpd": ghttpd.make_symbolic_test,
            "httpd-header": httpd.make_symbolic_header_test,
            "httpd-fault": httpd.make_fault_injection_test,
            "curl-glob": curl.make_globbing_test,
            "libevent": libevent.make_symbolic_test,
            "rsync": rsync.make_symbolic_test,
            "pbzip": pbzip.make_symbolic_test,
            "bandicoot": bandicoot.make_get_exploration_test,
            "prodcons": prodcons.make_benchmark_test,
            "lighttpd-frag-1.4.12": _lighttpd_factory(VERSION_1_4_12),
            "lighttpd-frag-1.4.13": _lighttpd_factory(VERSION_1_4_13),
            "lighttpd-frag-fixed": _lighttpd_factory(VERSION_FIXED),
        }
        for utility in coreutils.utility_names():
            builtins["coreutils-%s" % utility] = _coreutils_factory(utility)
        for name, factory in builtins.items():
            _REGISTRY.setdefault(name, factory)
        # Only now: an import that raised above must raise again on the next
        # call, not leave an empty registry behind.
        _BUILTINS_LOADED = True
