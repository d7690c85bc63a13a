"""A model of rsync's delta-transfer algorithm (Table 4, "network utilities").

The paper lists rsync among the systems that run under the POSIX model.  The
interesting path structure in rsync is the block-matching delta algorithm:

1. the receiver computes a weak (rolling) checksum for every block of the
   *basis* file it already has;
2. the sender scans the *new* file byte by byte with a rolling checksum,
   emitting ``COPY(block)`` tokens where a block of the basis matches (weak
   checksum hit confirmed by a byte-wise strong check) and ``LITERAL(byte)``
   tokens elsewhere;
3. the receiver reconstructs the new file from the basis plus the delta.

The model implements all three phases over the modeled file system and
asserts the end-to-end invariant -- the reconstruction equals the new file --
on every explored path.  With parts of the new file symbolic, a run that
exhausts all paths is a small proof of the delta algorithm's correctness for
that file shape, the same "symbolic tests as proofs" angle the paper makes
for memcached (§7.3.3).
"""

from __future__ import annotations

from typing import Optional

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.engine.state import ExecutionState
from repro.posix.api import add_concrete_file
from repro.posix.data import posix_of
from repro.posix.buffers import BlockBuffer
from repro.posix.data import FileNode
from repro.testing.symbolic_test import SymbolicTest

BLOCK_SIZE = 4
DEFAULT_BASIS = b"abcdabce"
DEFAULT_FILE_SIZE = len(DEFAULT_BASIS)

# Delta op-codes in the encoded delta stream.
OP_COPY = 1
OP_LITERAL = 2


def build_program(file_size: int = DEFAULT_FILE_SIZE,
                  block_size: int = BLOCK_SIZE) -> Program:
    """The rsync model: delta-encode ``/new`` against ``/basis`` and verify."""
    num_blocks = file_size // block_size
    max_delta = 2 * file_size + 2    # worst case: every byte is a literal

    # weak_sum(buf, start, n) -> sum of n bytes starting at start, mod 256.
    weak_sum = L.func(
        "weak_sum", ["buf", "start", "n"],
        L.decl("sum", 0),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("n")),
            L.assign("sum", L.mod(L.add(L.var("sum"),
                                        L.index(L.var("buf"),
                                                L.add(L.var("start"), L.var("i")))),
                                  256)),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("sum")),
    )

    # strong_match(a, a_start, b, b_start, n) -> 1 if the two ranges are equal.
    strong_match = L.func(
        "strong_match", ["a", "a_start", "b", "b_start", "n"],
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("n")),
            L.if_(L.ne(L.index(L.var("a"), L.add(L.var("a_start"), L.var("i"))),
                       L.index(L.var("b"), L.add(L.var("b_start"), L.var("i")))),
                  [L.ret(0)]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(1),
    )

    # build_signature(basis, sums): weak checksum of every basis block.
    build_signature = L.func(
        "build_signature", ["basis", "sums"],
        L.decl("b", 0),
        L.while_(L.lt(L.var("b"), num_blocks),
            L.store(L.var("sums"), L.var("b"),
                    L.call("weak_sum", L.var("basis"),
                           L.mul(L.var("b"), block_size), block_size)),
            L.assign("b", L.add(L.var("b"), 1)),
        ),
        L.ret(num_blocks),
    )

    # find_block(basis, sums, new, pos) -> matching block index, or 255.
    find_block = L.func(
        "find_block", ["basis", "sums", "new", "pos"],
        L.decl("w", L.call("weak_sum", L.var("new"), L.var("pos"), block_size)),
        L.decl("b", 0),
        L.while_(L.lt(L.var("b"), num_blocks),
            L.if_(L.eq(L.index(L.var("sums"), L.var("b")), L.var("w")), [
                L.if_(L.call("strong_match", L.var("basis"),
                             L.mul(L.var("b"), block_size),
                             L.var("new"), L.var("pos"), block_size),
                      [L.ret(L.var("b"))]),
            ]),
            L.assign("b", L.add(L.var("b"), 1)),
        ),
        L.ret(255),
    )

    # encode_delta(basis, sums, new, delta) -> number of delta bytes written.
    encode_delta = L.func(
        "encode_delta", ["basis", "sums", "new", "delta"],
        L.decl("pos", 0),
        L.decl("out", 0),
        L.while_(L.lt(L.var("pos"), file_size),
            L.decl("match", 255),
            L.if_(L.le(L.add(L.var("pos"), block_size), file_size), [
                L.assign("match", L.call("find_block", L.var("basis"),
                                         L.var("sums"), L.var("new"),
                                         L.var("pos"))),
            ]),
            L.if_(L.ne(L.var("match"), 255), [
                L.store(L.var("delta"), L.var("out"), OP_COPY),
                L.store(L.var("delta"), L.add(L.var("out"), 1), L.var("match")),
                L.assign("out", L.add(L.var("out"), 2)),
                L.assign("pos", L.add(L.var("pos"), block_size)),
            ], [
                L.store(L.var("delta"), L.var("out"), OP_LITERAL),
                L.store(L.var("delta"), L.add(L.var("out"), 1),
                        L.index(L.var("new"), L.var("pos"))),
                L.assign("out", L.add(L.var("out"), 2)),
                L.assign("pos", L.add(L.var("pos"), 1)),
            ]),
        ),
        L.ret(L.var("out")),
    )

    # apply_delta(basis, delta, delta_len, out) -> reconstructed length.
    apply_delta = L.func(
        "apply_delta", ["basis", "delta", "delta_len", "out"],
        L.decl("i", 0),
        L.decl("pos", 0),
        L.while_(L.lt(L.var("i"), L.var("delta_len")),
            L.decl("op", L.index(L.var("delta"), L.var("i"))),
            L.decl("arg", L.index(L.var("delta"), L.add(L.var("i"), 1))),
            L.if_(L.eq(L.var("op"), OP_COPY), [
                L.decl("j", 0),
                L.while_(L.lt(L.var("j"), block_size),
                    L.store(L.var("out"), L.add(L.var("pos"), L.var("j")),
                            L.index(L.var("basis"),
                                    L.add(L.mul(L.var("arg"), block_size),
                                          L.var("j")))),
                    L.assign("j", L.add(L.var("j"), 1)),
                ),
                L.assign("pos", L.add(L.var("pos"), block_size)),
            ], [
                L.store(L.var("out"), L.var("pos"), L.var("arg")),
                L.assign("pos", L.add(L.var("pos"), 1)),
            ]),
            L.assign("i", L.add(L.var("i"), 2)),
        ),
        L.ret(L.var("pos")),
    )

    # main: read both files, delta-encode, reconstruct, verify.
    main = L.func(
        "main", [],
        L.decl("basis", L.call("malloc", file_size)),
        L.decl("new", L.call("malloc", file_size)),
        L.decl("fd1", L.call("open", L.strconst("/basis"), 0)),
        L.decl("fd2", L.call("open", L.strconst("/new"), 0)),
        L.if_(L.lor(L.eq(L.var("fd1"), 0xFFFFFFFF),
                    L.eq(L.var("fd2"), 0xFFFFFFFF)), [L.ret(100)]),
        L.decl("n1", L.call("read", L.var("fd1"), L.var("basis"), file_size)),
        L.decl("n2", L.call("read", L.var("fd2"), L.var("new"), file_size)),
        L.if_(L.lor(L.ne(L.var("n1"), file_size), L.ne(L.var("n2"), file_size)),
              [L.ret(101)]),
        L.decl("sums", L.call("malloc", num_blocks)),
        L.expr_stmt(L.call("build_signature", L.var("basis"), L.var("sums"))),
        L.decl("delta", L.call("malloc", max_delta)),
        L.decl("delta_len", L.call("encode_delta", L.var("basis"), L.var("sums"),
                                   L.var("new"), L.var("delta"))),
        L.decl("out", L.call("malloc", file_size)),
        L.decl("rebuilt", L.call("apply_delta", L.var("basis"), L.var("delta"),
                                 L.var("delta_len"), L.var("out"))),
        L.assert_(L.eq(L.var("rebuilt"), file_size),
                  "reconstructed length differs from the new file"),
        L.decl("k", 0),
        L.while_(L.lt(L.var("k"), file_size),
            L.assert_(L.eq(L.index(L.var("out"), L.var("k")),
                           L.index(L.var("new"), L.var("k"))),
                      "reconstructed byte differs from the new file"),
            L.assign("k", L.add(L.var("k"), 1)),
        ),
        # Return the number of delta bytes: identical files give the most
        # compact delta (2 bytes per block).
        L.ret(L.var("delta_len")),
    )

    return L.program("rsync", weak_sum, strong_match, build_signature,
                     find_block, encode_delta, apply_delta, main)


def make_setup(basis: bytes = DEFAULT_BASIS,
               symbolic_bytes: int = 1):
    """Setup callback: ``/basis`` is concrete; ``/new`` is the basis with its
    first ``symbolic_bytes`` bytes replaced by fresh symbolic bytes."""

    def setup(state: ExecutionState) -> None:
        add_concrete_file(state, "/basis", basis)
        cells = list(basis)
        for i in range(min(symbolic_bytes, len(cells))):
            symbol = state.new_symbol("new_byte")
            state.symbolic_inputs.setdefault("new_byte", []).append(symbol)
            cells[i] = symbol
        node = FileNode(path=b"/new", data=BlockBuffer(), symbolic=symbolic_bytes > 0)
        node.data.set_contents(cells)
        posix_of(state).own_table("filesystem")[b"/new"] = node

    return setup


def make_symbolic_test(basis: bytes = DEFAULT_BASIS,
                       symbolic_bytes: int = 1,
                       max_instructions: int = 400_000) -> SymbolicTest:
    """Delta-transfer a file whose first bytes are symbolic and verify it."""
    return SymbolicTest(
        name="rsync-delta-%d-symbolic" % symbolic_bytes,
        program=build_program(file_size=len(basis)),
        setup=make_setup(basis, symbolic_bytes),
        options={"max_instructions": max_instructions},
    )


def make_concrete_test(basis: bytes = DEFAULT_BASIS,
                       new: Optional[bytes] = None) -> SymbolicTest:
    """Delta-transfer one concrete file pair (single path)."""
    new = basis if new is None else new
    if len(new) != len(basis):
        raise ValueError("the model transfers equal-length files")

    def setup(state: ExecutionState) -> None:
        add_concrete_file(state, "/basis", basis)
        add_concrete_file(state, "/new", new)

    return SymbolicTest(
        name="rsync-delta-concrete",
        program=build_program(file_size=len(basis)),
        setup=setup,
    )
