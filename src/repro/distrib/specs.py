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

Every target under :mod:`repro.targets` is a stock spec, listed below as the
model module and factory it names: a lookup imports that one module, so a
process rebuilding a test loads one model, not all of them.  User code adds
its own specs with :func:`register_spec`; when using the
``"spawn"`` start method, list the registering module in
``ProcessClusterConfig.spec_modules`` so child processes import it too
(``"fork"``, the default where available, inherits the parent's registry).
"""

from __future__ import annotations

import functools
import importlib
import threading
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoid import cycle at module load
    from repro.testing.symbolic_test import SymbolicTest

SpecFactory = Callable[..., "SymbolicTest"]

#: Registered specs, and the stock ones looked up so far.
_REGISTRY: Dict[str, SpecFactory] = {}
_LOCK = threading.Lock()

#: The stock specs: name -> (module under :mod:`repro.targets`, its factory,
#: and optionally the module constant the factory takes first).
_BUILTINS: Dict[str, Tuple[str, ...]] = {
    "printf": ("printf", "make_symbolic_test"),
    "testcmd": ("testcmd", "make_symbolic_test"),
    "memcached-packets": ("memcached", "make_symbolic_packets_test"),
    "memcached-binary": ("memcached", "make_binary_suite_test"),
    "memcached-fault": ("memcached", "make_fault_injection_test"),
    "memcached-udp-hang": ("memcached", "make_udp_hang_test"),
    "ghttpd": ("ghttpd", "make_symbolic_test"),
    "httpd-header": ("httpd", "make_symbolic_header_test"),
    "httpd-fault": ("httpd", "make_fault_injection_test"),
    "curl-glob": ("curl", "make_globbing_test"),
    "libevent": ("libevent", "make_symbolic_test"),
    "rsync": ("rsync", "make_symbolic_test"),
    "pbzip": ("pbzip", "make_symbolic_test"),
    "bandicoot": ("bandicoot", "make_get_exploration_test"),
    "prodcons": ("prodcons", "make_benchmark_test"),
    "lighttpd-frag-1.4.12": ("lighttpd", "make_symbolic_fragmentation_test",
                             "VERSION_1_4_12"),
    "lighttpd-frag-1.4.13": ("lighttpd", "make_symbolic_fragmentation_test",
                             "VERSION_1_4_13"),
    "lighttpd-frag-fixed": ("lighttpd", "make_symbolic_fragmentation_test",
                            "VERSION_FIXED"),
}
#: ``coreutils-<utility>`` is a stock spec for every utility of the
#: Coreutils model (``make_utility_test(utility, ...)``).
_COREUTILS = "coreutils-"

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
    fork structure).  A name already taken -- registered, or a stock spec
    whether looked up yet or not -- is refused unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError("spec name must be a non-empty string")
    if not callable(factory):
        raise TypeError("spec factory must be callable, got %r" % (factory,))
    with _LOCK:
        if not replace and (name in _REGISTRY or _is_stock(name)):
            raise ValueError("spec %r is already registered "
                             "(pass replace=True to override)" % name)
        _REGISTRY[name] = factory
    return factory


def get_spec(name: str) -> SpecFactory:
    factory = _REGISTRY.get(name)
    if factory is None:
        factory = _builtin(name)
        if factory is None:
            raise ValueError(
                "unknown test spec %r (available: %s); register it with "
                "repro.distrib.specs.register_spec" %
                (name, ", ".join(available_specs())))
        with _LOCK:
            factory = _REGISTRY.setdefault(name, factory)
    return factory


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
    """Every spec name, stock and registered.  Imports every target model,
    so one that fails to import fails this call -- every call, until it is
    fixed -- rather than dropping out of the list."""
    coreutils = importlib.import_module("repro.targets.coreutils")
    names = set(_BUILTINS)
    names.update(_COREUTILS + utility for utility in coreutils.utility_names())
    for name in sorted(names):
        get_spec(name)
    return sorted(names | set(_REGISTRY))


def _is_stock(name: str) -> bool:
    """Whether ``name`` is a stock spec, looked up yet or not."""
    if name.startswith(_COREUTILS):
        coreutils = importlib.import_module("repro.targets.coreutils")
        return name[len(_COREUTILS):] in coreutils.utility_names()
    return name in _BUILTINS


def _builtin(name: str) -> Optional[SpecFactory]:
    """The stock factory called ``name`` (importing its target module), or
    None when no stock spec has that name."""
    if name.startswith(_COREUTILS):
        coreutils = importlib.import_module("repro.targets.coreutils")
        utility = name[len(_COREUTILS):]
        if utility not in coreutils.utility_names():
            return None
        return functools.partial(coreutils.make_utility_test, utility)
    entry = _BUILTINS.get(name)
    if entry is None:
        return None
    module = importlib.import_module("repro.targets." + entry[0])
    factory: SpecFactory = getattr(module, entry[1])
    if len(entry) > 2:
        factory = functools.partial(factory, getattr(module, entry[2]))
    return factory
