"""Unit tests for symbolic memory: objects, address spaces, CoW domains."""

import pytest

from repro.lang import builder as L
from repro.engine.memory import (
    AddressSpace,
    CowDomain,
    DeterministicAllocator,
    MemoryError_,
    MemoryObject,
)
from repro.engine.executor import SymbolicExecutor
from repro.engine.natives import NativeContext
from repro.engine.state import ExecutionState
from repro.engine.values import is_concrete
from repro.lang.compiler import compile_program
from repro.solver import expr as E

from conftest import python_calls


def _state() -> ExecutionState:
    state = ExecutionState(compile_program(
        L.program("p", L.func("main", [], L.ret(0)))))
    state.create_main_process()
    return state


class TestMemoryObject:
    def test_read_write(self):
        obj = MemoryObject(0x1000, 4, name="buf")
        obj.write_byte(0, 0x41)
        assert obj.read_byte(0) == 0x41
        assert obj.read_byte(1) == 0

    def test_out_of_bounds_read(self):
        obj = MemoryObject(0x1000, 4)
        with pytest.raises(MemoryError_):
            obj.read_byte(4)

    def test_out_of_bounds_write(self):
        obj = MemoryObject(0x1000, 4)
        with pytest.raises(MemoryError_):
            obj.write_byte(7, 1)

    def test_read_only_object(self):
        obj = MemoryObject(0x1000, 4, writable=False)
        with pytest.raises(MemoryError_):
            obj.write_byte(0, 1)

    def test_symbolic_cells(self):
        obj = MemoryObject(0x1000, 2)
        sym = E.bv_symbol("s", 8)
        obj.write_byte(0, sym)
        assert obj.read_byte(0) is sym
        assert obj.cells == [sym, 0]

    def test_concrete_bytes(self):
        state = _state()
        obj = state.allocate(2)
        state.mem_write_bytes(obj.address, [0x41, 0x42])
        assert bytes(state.mem_read_bytes(obj.address, 2)) == b"AB"
        assert state.resolve(obj.address)[0].cells == [0x41, 0x42]

    def test_copy_is_independent(self):
        obj = MemoryObject(0x1000, 2)
        clone = obj.copy()
        clone.write_byte(0, 9)
        assert obj.read_byte(0) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryObject(0x1000, -1)


class TestDeterministicAllocator:
    def test_addresses_are_deterministic(self):
        a = DeterministicAllocator()
        b = DeterministicAllocator()
        sizes = [8, 1, 100, 16]
        assert [a.allocate(s) for s in sizes] == [b.allocate(s) for s in sizes]

    def test_alignment(self):
        allocator = DeterministicAllocator()
        first = allocator.allocate(3)
        second = allocator.allocate(1)
        assert second % 16 == 0
        assert second > first

    def test_copy_preserves_cursor(self):
        allocator = DeterministicAllocator()
        allocator.allocate(10)
        clone = allocator.copy()
        assert clone.allocate(4) == allocator.allocate(4)


class TestAddressSpace:
    def test_bind_resolve(self):
        space = AddressSpace()
        obj = MemoryObject(0x2000, 8, name="x")
        space.bind(obj)
        found, offset = space.resolve(0x2000)
        assert found is obj and offset == 0

    def test_interior_pointer_resolution(self):
        space = AddressSpace()
        space.bind(MemoryObject(0x2000, 8))
        found, offset = space.resolve(0x2005)
        assert offset == 5

    def test_unmapped_access(self):
        space = AddressSpace()
        with pytest.raises(MemoryError_):
            space.resolve(0x9999)

    def test_unbind(self):
        space = AddressSpace()
        space.bind(MemoryObject(0x2000, 8))
        space.unbind(0x2000)
        assert 0x2000 not in space.objects
        with pytest.raises(MemoryError_):
            space.resolve(0x2000)
        with pytest.raises(MemoryError_):
            space.unbind(0x2000)

    def test_clone_copy_on_write(self):
        space = AddressSpace()
        space.bind(MemoryObject(0x2000, 4))
        clone = space.clone()
        clone.own(0x2000).write_byte(0, 0x7)
        assert space.resolve(0x2000)[0].read_byte(0) == 0
        assert clone.resolve(0x2000)[0].read_byte(0) == 0x7
        # The copy is made once: the clone now owns its object.
        assert clone.own(0x2000) is clone.objects[0x2000]

    def test_clone_write_in_original_does_not_leak(self):
        space = AddressSpace()
        space.bind(MemoryObject(0x2000, 4))
        clone = space.clone()
        space.own(0x2000).write_byte(1, 0x9)
        assert clone.resolve(0x2000)[0].read_byte(1) == 0
        assert space.resolve(0x2000)[0].read_byte(1) == 0x9

    def test_len(self):
        space = AddressSpace()
        space.bind(MemoryObject(0x2000, 4))
        space.bind(MemoryObject(0x3000, 4))
        assert len(space.objects) == 2


class TestCowDomain:
    def test_shared_object_visible(self):
        domain = CowDomain()
        obj = MemoryObject(0x4000, 4)
        domain.share(obj)
        assert domain.resolve(0x4000) == (obj, 0)
        assert domain.objects == {0x4000: obj}
        assert obj.shared

    def test_clone_isolates_states(self):
        domain = CowDomain()
        obj = MemoryObject(0x4000, 4)
        domain.share(obj)
        clone = domain.clone()
        clone_obj, _ = clone.resolve(0x4000)
        clone_obj.write_byte(0, 0x5)
        assert obj.read_byte(0) == 0

    def test_interior_resolution(self):
        domain = CowDomain()
        domain.share(MemoryObject(0x4000, 8))
        resolved = domain.resolve(0x4003)
        assert resolved is not None and resolved[1] == 3
        assert domain.resolve(0x9000) is None


# -- C strings ---------------------------------------------------------------------------


def _byte_at_a_time(ctx, address, max_length=4096):
    """``read_c_string`` as it was: one ``mem_read`` per byte."""
    out = bytearray()
    for offset in range(max_length):
        cell = ctx.state.mem_read(address, offset)
        value = cell if is_concrete(cell) else ctx.concretize(cell)
        if value == 0:
            break
        out.append(value & 0xFF)
    return bytes(out)


def _string_context():
    """A native's context over a state holding the label ``"in"`` and a
    4-byte heap object ``"ab" <symbolic byte above 0x20> "c"`` with no
    terminator."""
    executor = SymbolicExecutor(L.program("p", L.func(
        "main", [], L.decl("label", L.strconst("in")), L.ret(0))))
    state = executor.make_initial_state()
    heap = state.allocate(4, name="heap")
    symbol = E.bv_symbol("s", 8)
    state.add_constraint(E.ult(E.bv_const(0x20, 8), symbol))
    state.mem_write_bytes(heap.address, [0x61, 0x62, symbol, 0x63])
    return NativeContext(executor, state, [], None), heap.address


def _read(read, address_of, max_length):
    ctx, heap = _string_context()
    address = address_of(ctx.state, heap)
    try:
        value = read(ctx, address, max_length)
    except MemoryError_ as exc:
        value = str(exc)
    return value, list(ctx.state.path_constraints)


class TestCString:
    def test_the_label_resolves_once(self):
        ctx, _ = _string_context()
        label = ctx.state.string_address(b"in")
        with python_calls(by_code=True) as calls:
            assert ctx.read_c_string(label) == b"in"
        assert calls[ExecutionState.resolve.__code__] == 1
        assert calls[AddressSpace.resolve.__code__] == 1

    @pytest.mark.parametrize("where", ["label", "interior", "heap",
                                       "unmapped"])
    @pytest.mark.parametrize("max_length", [0, 1, 2, 4, 4096])
    def test_reads_what_a_byte_at_a_time_read_reads(self, where, max_length):
        """The same bytes, the same concretized symbolic byte, and the same
        error at the same offset past the object's end."""
        address_of = {
            "label": lambda state, heap: state.string_address(b"in"),
            "interior": lambda state, heap: heap + 1,
            "heap": lambda state, heap: heap,
            "unmapped": lambda state, heap: 0x10,
        }[where]
        got = _read(lambda ctx, address, length: ctx.read_c_string(
            address, length), address_of, max_length)
        assert got == _read(_byte_at_a_time, address_of, max_length)
