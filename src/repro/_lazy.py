"""Package re-exports resolved on first use (PEP 562).

A package that lists its public names here imports the module defining one
only when the name is first read, so ``import repro`` -- and every process a
run starts -- pays for the layers it uses and no others.  ``from pkg import
Name`` and ``pkg.Name`` work as with an eager import; the value is read from
the defining module on every access, so the package never holds a stale
copy of a name that module rebinds.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a module to the names the package takes from it,
    mirroring ``from module import name, ...``; under the package's own name
    it lists the submodules the package exposes (``from repro import api``).
    """
    origin: Dict[str, str] = {name: module for module, names in exports.items()
                              for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        if module == package:
            return importlib.import_module("%s.%s" % (package, name))
        return getattr(importlib.import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
