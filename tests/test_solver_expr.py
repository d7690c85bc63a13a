"""Unit tests for the expression language (repro.solver.expr)."""

import copy
import gc
import pickle
import sys
import threading
import time
import weakref

import pytest

from repro.engine.values import false_condition, truth_condition
from repro.solver import expr as E
from repro.solver.simplify import simplify
from repro.solver.solver import Solver


class TestSorts:
    def test_bitvector_sort_equality(self):
        assert E.BvSort(8) == E.BvSort(8)
        assert E.BvSort(8) != E.BvSort(16)
        assert E.BoolSort() == E.BoolSort()

    def test_a_sort_is_one_object(self):
        assert E.BvSort(8) is E.BvSort(8) is E.BV8
        assert E.BvSort(8) is not E.BvSort(16)
        assert E.BoolSort() is E.BoolSort() is E.BOOL

    def test_a_pickled_sort_comes_back_as_the_same_object(self):
        for sort in (E.BvSort(8), E.BvSort(24), E.BoolSort()):
            assert pickle.loads(pickle.dumps(sort)) is sort
            assert copy.copy(sort) is sort and copy.deepcopy(sort) is sort
        assert pickle.loads(pickle.dumps(E.bv_symbol("s", 24))).sort \
            is E.BvSort(24)

    def test_bitvector_sort_mask(self):
        assert E.BvSort(8).mask == 0xFF
        assert E.BvSort(32).mask == 0xFFFFFFFF

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            E.BvSort(0)


class TestConstruction:
    def test_constant_masking(self):
        assert E.bv_const(256, 8).value == 0
        assert E.bv_const(-1, 8).value == 0xFF

    def test_symbol_requires_name(self):
        with pytest.raises(ValueError):
            E.bv_symbol("")

    def test_structural_equality_and_hash(self):
        a = E.add(E.bv_symbol("x", 8), E.bv_const(1, 8))
        b = E.add(E.bv_symbol("x", 8), E.bv_const(1, 8))
        assert a == b
        assert hash(a) == hash(b)
        assert a != E.add(E.bv_symbol("y", 8), E.bv_const(1, 8))

    def test_width_mismatch_rejected(self):
        with pytest.raises(TypeError):
            E.add(E.bv_symbol("x", 8), E.bv_const(1, 16))

    def test_bool_operand_where_bv_expected(self):
        with pytest.raises(TypeError):
            E.add(E.TRUE, E.FALSE)

    def test_comparison_produces_bool(self):
        cmp_expr = E.ult(E.bv_symbol("x", 8), E.bv_const(10, 8))
        assert cmp_expr.is_bool

    def test_extract_validation(self):
        x = E.bv_symbol("x", 8)
        with pytest.raises(ValueError):
            E.extract(x, 8, 0)
        with pytest.raises(ValueError):
            E.extract(x, 2, 5)

    def test_zext_shrink_rejected(self):
        with pytest.raises(ValueError):
            E.zext(E.bv_symbol("x", 16), 8)

    def test_zext_same_width_is_identity(self):
        x = E.bv_symbol("x", 8)
        assert E.zext(x, 8) is x

    def test_concat_width(self):
        x = E.bv_symbol("x", 8)
        y = E.bv_symbol("y", 8)
        assert E.concat(x, y).width == 16

    def test_ite_sort_mismatch(self):
        with pytest.raises(TypeError):
            E.ite(E.TRUE, E.bv_const(1, 8), E.bv_const(1, 16))

    def test_symbols_collection(self):
        x = E.bv_symbol("x", 8)
        y = E.bv_symbol("y", 8)
        expr = E.add(E.mul(x, y), x)
        assert expr.symbols() == {x, y}

    def test_depth(self):
        x = E.bv_symbol("x", 8)
        assert x.depth() == 1
        assert E.add(x, E.bv_const(1, 8)).depth() == 2


class TestEvaluate:
    def test_arithmetic_wraps(self):
        x = E.bv_symbol("x", 8)
        expr = E.add(x, E.bv_const(200, 8))
        assert E.evaluate(expr, {x: 100}) == (300 & 0xFF)

    def test_sub_wraps(self):
        x = E.bv_symbol("x", 8)
        assert E.evaluate(E.sub(E.bv_const(0, 8), x), {x: 1}) == 0xFF

    def test_division_by_zero_is_all_ones(self):
        x = E.bv_symbol("x", 8)
        assert E.evaluate(E.udiv(E.bv_const(5, 8), x), {x: 0}) == 0xFF

    def test_rem_by_zero_returns_lhs(self):
        x = E.bv_symbol("x", 8)
        assert E.evaluate(E.urem(E.bv_const(5, 8), x), {x: 0}) == 5

    def test_shift_beyond_width(self):
        x = E.bv_symbol("x", 8)
        assert E.evaluate(E.shl(x, E.bv_const(9, 8)), {x: 1}) == 0
        assert E.evaluate(E.lshr(x, E.bv_const(9, 8)), {x: 255}) == 0

    def test_concat_extract_roundtrip(self):
        hi = E.bv_symbol("hi", 8)
        lo = E.bv_symbol("lo", 8)
        word = E.concat(hi, lo)
        assignment = {hi: 0xAB, lo: 0xCD}
        assert E.evaluate(word, assignment) == 0xABCD
        assert E.evaluate(E.extract(word, 15, 8), assignment) == 0xAB
        assert E.evaluate(E.extract(word, 7, 0), assignment) == 0xCD

    def test_signed_comparisons(self):
        x = E.bv_symbol("x", 8)
        y = E.bv_symbol("y", 8)
        # 0xFF is -1 signed, so -1 < 1.
        assert E.evaluate(E.slt(x, y), {x: 0xFF, y: 1}) is True
        assert E.evaluate(E.ult(x, y), {x: 0xFF, y: 1}) is False

    def test_boolean_connectives(self):
        x = E.bv_symbol("x", 8)
        cond = E.logical_and(E.ult(x, E.bv_const(10, 8)),
                             E.ne(x, E.bv_const(0, 8)))
        assert E.evaluate(cond, {x: 5}) is True
        assert E.evaluate(cond, {x: 0}) is False
        assert E.evaluate(cond, {x: 20}) is False

    def test_implies(self):
        x = E.bv_symbol("x", 8)
        expr = E.implies(E.eq(x, E.bv_const(1, 8)), E.ult(x, E.bv_const(5, 8)))
        assert E.evaluate(expr, {x: 1}) is True
        assert E.evaluate(expr, {x: 9}) is True  # antecedent false

    def test_ite(self):
        x = E.bv_symbol("x", 8)
        expr = E.ite(E.eq(x, E.bv_const(0, 8)), E.bv_const(10, 8), E.bv_const(20, 8))
        assert E.evaluate(expr, {x: 0}) == 10
        assert E.evaluate(expr, {x: 3}) == 20

    def test_missing_symbol_raises(self):
        x = E.bv_symbol("x", 8)
        with pytest.raises(KeyError):
            E.evaluate(E.add(x, x), {})


class TestSignedHelpers:
    def test_to_signed(self):
        assert E.to_signed(0xFF, 8) == -1
        assert E.to_signed(0x7F, 8) == 127
        assert E.to_signed(0x80, 8) == -128

    def test_from_signed(self):
        assert E.from_signed(-1, 8) == 0xFF
        assert E.from_signed(5, 8) == 5

    def test_concat_bytes(self):
        cells = [E.bv_const(0x12, 8), E.bv_const(0x34, 8)]
        assert E.evaluate(E.concat_bytes(cells), {}) == 0x1234
        with pytest.raises(ValueError):
            E.concat_bytes([])


class TestSharedSubDags:
    """``e = add(e, e)`` forty times is 41 nodes and 2**40 references: every
    per-node fact must be computed per node, not per reference."""

    LEVELS = 40

    def doubled(self, levels=LEVELS):
        x = E.bv_symbol("x", 8)
        node = E.add(x, E.bv_const(3, 8))
        for _ in range(levels):
            node = E.add(node, node)
        return x, node

    def test_facts_are_linear_in_distinct_nodes(self):
        x, node = self.doubled()
        started = time.monotonic()
        assert node.symbols() == {x}
        assert node.depth() == self.LEVELS + 2
        assert node.constants() == {3}
        assert simplify(node) is node
        assert Solver()._interesting_constants([node]) == [2, 3, 4]
        assert time.monotonic() - started < 1.0

    def test_a_twin_dag_is_the_same_node(self):
        _, node = self.doubled(8)
        simplify(node), node.symbols(), node.depth(), node.constants()
        _, twin = self.doubled(8)
        assert twin is node
        # So a fact one path paid for is there for every other path.
        assert twin._simplified is True and twin._depth == 10

    def test_a_pickle_round_trip_returns_the_live_node(self):
        _, node = self.doubled(8)
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node and copy.deepcopy(node) is node

    def test_memos_stay_out_of_equality_hash_and_pickles(self):
        # ``type.__call__`` builds around the intern table: a second node of
        # the same structure, without the memos.  Equality is identity, so
        # it is a different, unequal node; only the table makes nodes equal.
        _, node = self.doubled(8)
        before = pickle.dumps(node)
        simplify(node), node.symbols(), node.depth(), node.constants()
        truth_condition(node), false_condition(node)
        assert node._truth is not None and node._falsity is not None
        stray = type.__call__(E.Expr, node.op, node.args, node.sort)
        assert stray is not node
        assert stray != node and node != stray and not stray == node
        assert stray._simplified is None and stray._symbols is None
        assert stray._depth is None and stray._constants is None
        assert stray._truth is None and stray._falsity is None
        # No memo is pickled, and unpickling goes through the table: both
        # round trips hand back the table's own node.
        assert pickle.dumps(node) == pickle.dumps(stray) == before
        assert pickle.loads(before) is node
        assert pickle.loads(pickle.dumps(stray)) is node

    def test_racing_threads_build_one_node(self):
        # Eight threads build the same fresh structures at once, switching
        # as often as the interpreter allows: each structure is one node.
        threads, structures = 8, 200
        barrier = threading.Barrier(threads)
        built = [[] for _ in range(threads)]

        def build(out):
            barrier.wait()
            for k in range(structures):
                x = E.bv_symbol("intern_race_probe_%d" % k, 8)
                out.append(E.ult(E.add(x, E.bv_const(k, 8)), x))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(out,))
                       for out in built]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        for k in range(structures):
            nodes = [out[k] for out in built]
            assert len({id(node) for node in nodes}) == 1
            assert len({id(node.args[0]) for node in nodes}) == 1

    def test_the_intern_table_is_weak(self, monkeypatch):
        built = []
        real_init = E.Expr.__init__

        def counting_init(self, op, *args, **kwargs):
            built.append(op)
            real_init(self, op, *args, **kwargs)

        monkeypatch.setattr(E.Expr, "__init__", counting_init)

        def build():
            x = E.bv_symbol("intern_table_probe", 8)
            return E.ult(E.add(x, x), x)

        node = build()
        assert built == [E.Op.BV_SYMBOL, E.Op.ADD, E.Op.ULT]
        assert build() is node and len(built) == 3
        gone = weakref.ref(node)
        del node
        gc.collect()
        # Dropped, but still among the last ``_KEPT`` nodes built: the
        # nursery keeps it alive, so rebuilding it builds nothing.
        assert gone() is not None
        assert build() is gone() and len(built) == 3
        # ``_KEPT`` newer structures push it out: then the table lets it go,
        # and the nursery never holds more than ``_KEPT`` nodes.
        for k in range(E._KEPT):
            E.bv_symbol("intern_table_filler_%d" % k, 8)
        assert len(built) == 3 + E._KEPT and len(E._NURSERY) == E._KEPT
        gc.collect()
        assert gone() is None
        build()
        assert built[-3:] == [E.Op.BV_SYMBOL, E.Op.ADD, E.Op.ULT]
        assert len(built) == 6 + E._KEPT
