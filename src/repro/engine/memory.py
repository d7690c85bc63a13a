"""Symbolic memory: objects, address spaces, copy-on-write domains.

Section 4.2 of the paper describes the two engine extensions Cloud9 adds to
KLEE's memory model and that this module reproduces:

* multiple *address spaces* within one execution state (one per process), and
* *CoW domains*: groups of address spaces that share selected objects, so a
  write to a shared object in one process becomes visible to the others
  (used by the POSIX model for inter-process communication).

Section 6 ("Broken Replays") motivates the *per-state deterministic
allocator*: addresses must depend only on the history of allocations within
the state, never on host allocator behaviour, so that replaying a job path on
another worker reconstructs identical addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.solver.expr import Expr

# A memory cell holds either a concrete byte (int 0..255) or a symbolic
# 8-bit expression.
Cell = Union[int, Expr]


class MemoryError_(Exception):
    """Raised on out-of-bounds or use-after-free accesses.

    The interpreter converts it into a :class:`repro.engine.errors.BugReport`
    (the paper: "Cloud9 inherits KLEE's capabilities, being able to recognize
    memory errors").
    """

    def __init__(self, message: str, address: int = 0, offset: int = 0):
        super().__init__(message)
        self.address = address
        self.offset = offset


class MemoryObject:
    """A contiguous allocation of bytes.

    Objects are copy-on-write: cloning an address space shares objects until
    one side writes, at which point the writer gets a private copy.
    """

    __slots__ = ("address", "size", "cells", "name", "writable", "shared")

    def __init__(self, address: int, size: int, name: str = "",
                 fill: Cell = 0, writable: bool = True, shared: bool = False):
        if size < 0:
            raise ValueError("memory object size must be non-negative")
        self.address = address
        self.size = size
        self.cells: List[Cell] = [fill] * size
        self.name = name
        self.writable = writable
        self.shared = shared

    def copy(self) -> "MemoryObject":
        clone = MemoryObject.__new__(MemoryObject)
        clone.address = self.address
        clone.size = self.size
        clone.cells = list(self.cells)
        clone.name = self.name
        clone.writable = self.writable
        clone.shared = self.shared
        return clone

    def read_byte(self, offset: int) -> Cell:
        if not 0 <= offset < self.size:
            raise MemoryError_(
                "out-of-bounds read at %s+%d (size %d)" % (self.name or hex(self.address), offset, self.size),
                address=self.address, offset=offset)
        return self.cells[offset]

    def write_byte(self, offset: int, value: Cell) -> None:
        if not self.writable:
            raise MemoryError_(
                "write to read-only object %s" % (self.name or hex(self.address)),
                address=self.address, offset=offset)
        if not 0 <= offset < self.size:
            raise MemoryError_(
                "out-of-bounds write at %s+%d (size %d)" % (self.name or hex(self.address), offset, self.size),
                address=self.address, offset=offset)
        self.cells[offset] = value

    def __repr__(self) -> str:
        return "MemoryObject(%s @0x%x, %d bytes)" % (self.name, self.address, self.size)


# Address-space layout constants for the deterministic allocator.
_DATA_SEGMENT_BASE = 0x1000
_HEAP_BASE = 0x100000
_SHARED_BASE = 0x4000000
_ALIGNMENT = 16


def _align(value: int) -> int:
    return (value + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


class DeterministicAllocator:
    """Per-state bump allocator with fully deterministic addresses."""

    __slots__ = ("next_address",)

    def __init__(self, base: int = _HEAP_BASE):
        self.next_address = base

    def allocate(self, size: int) -> int:
        address = self.next_address
        self.next_address = _align(address + max(size, 1))
        return address

    def copy(self) -> "DeterministicAllocator":
        clone = DeterministicAllocator.__new__(DeterministicAllocator)
        clone.next_address = self.next_address
        return clone


class AddressSpace:
    """The private memory of one process."""

    __slots__ = ("objects", "_cow_shared")

    def __init__(self):
        self.objects: Dict[int, MemoryObject] = {}
        # Object addresses whose MemoryObject instance is currently shared
        # with a sibling address space / forked state and must be copied
        # before the first write.
        self._cow_shared: set = set()

    # -- cloning ------------------------------------------------------------

    def clone(self) -> "AddressSpace":
        """A copy-on-write clone (used on state fork and process fork)."""
        clone = AddressSpace.__new__(AddressSpace)
        clone.objects = dict(self.objects)
        shared = set(self.objects)
        clone._cow_shared = shared
        # The original must also treat all its objects as shared from now on.
        self._cow_shared = set(shared)
        return clone

    def own(self, address: int) -> MemoryObject:
        """The object at ``address``, copied first if a clone still shares
        it: the one object a change here may touch."""
        obj = self.objects.get(address)
        if obj is None:
            raise MemoryError_("access to unmapped address 0x%x" % address,
                               address=address)
        if address in self._cow_shared:
            obj = obj.copy()
            self.objects[address] = obj
            self._cow_shared.discard(address)
        return obj

    # -- object management ----------------------------------------------------

    def bind(self, obj: MemoryObject) -> None:
        self.objects[obj.address] = obj

    def unbind(self, address: int) -> None:
        if address not in self.objects:
            raise MemoryError_("free of unmapped address 0x%x" % address,
                               address=address)
        del self.objects[address]
        self._cow_shared.discard(address)

    def resolve(self, address: int) -> Tuple[MemoryObject, int]:
        """Find the object containing ``address``; returns (object, offset)."""
        obj = self.objects.get(address)
        if obj is not None:
            return obj, 0
        # Interior pointer: linear scan (objects are few per state).
        for base, candidate in self.objects.items():
            if base <= address < base + candidate.size:
                return candidate, address - base
        raise MemoryError_("access to unmapped address 0x%x" % address,
                           address=address)


class CowDomain:
    """A copy-on-write domain: objects shared between processes of one state.

    ``cloud9_make_shared`` moves an object into the domain; subsequent writes
    by any process are visible to every process attached to the domain
    (paper §4.2, "Address Spaces").  Across state forks the whole domain is
    cloned, so states never observe each other's writes.
    """

    __slots__ = ("objects",)

    def __init__(self):
        self.objects: Dict[int, MemoryObject] = {}

    def clone(self) -> "CowDomain":
        clone = CowDomain.__new__(CowDomain)
        clone.objects = {addr: obj.copy() for addr, obj in self.objects.items()}
        return clone

    def share(self, obj: MemoryObject) -> None:
        obj.shared = True
        self.objects[obj.address] = obj

    def unshare(self, address: int) -> Optional[MemoryObject]:
        """Remove an object from the domain (e.g. ``munmap`` of a shared map)."""
        return self.objects.pop(address, None)

    def resolve(self, address: int) -> Optional[Tuple[MemoryObject, int]]:
        obj = self.objects.get(address)
        if obj is not None:
            return obj, 0
        for base, candidate in self.objects.items():
            if base <= address < base + candidate.size:
                return candidate, address - base
        return None
