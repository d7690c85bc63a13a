"""A model of pbzip2, the parallel block-compression utility (Table 4).

pbzip2 splits its input into blocks, compresses the blocks on worker threads
and reassembles the compressed stream in block order.  The model keeps that
structure -- a work queue drained by ``NUM_WORKERS`` pthreads, per-block
output slots, a completion condition variable -- and replaces the bzip2
entropy coder with run-length encoding, which preserves the part that matters
for symbolic testing: the output depends on byte-equality comparisons over
the (symbolic) input, and the block reassembly must put every block back in
its original position.

The end-to-end assertion -- decompressing the reassembled stream yields the
original input -- runs on every explored path, so an exhaustive run over a
partially-symbolic input checks the compressor for a whole family of inputs,
across thread interleavings when schedule forking is enabled.
"""

from __future__ import annotations

from repro import lang as L
from repro.engine.config import EngineConfig
from repro.engine.state import ExecutionState
from repro.posix.api import add_concrete_file
from repro.posix.buffers import BlockBuffer
from repro.posix.data import FileNode, posix_of
from repro.testing.symbolic_test import SymbolicTest

BLOCK_SIZE = 3
NUM_BLOCKS = 2
FILE_SIZE = BLOCK_SIZE * NUM_BLOCKS
NUM_WORKERS = 2

# Worst-case RLE output for one block: (count, byte) per input byte.
MAX_BLOCK_OUT = 2 * BLOCK_SIZE

# Arena layout (a single malloc'd buffer shared by all threads of the process).
A_MUTEX = 0          # mutex handle
A_NOT_EMPTY = 1      # "work available" condition variable handle
A_DONE = 2           # "all blocks compressed" condition variable handle
A_HEAD = 3           # next block index to hand to a worker
A_PRODUCED = 4       # number of blocks published by the reader
A_COMPLETED = 5      # number of blocks fully compressed
A_TOTAL = 6          # total number of blocks
A_OUT_LEN = 8        # per-block compressed length         [A_OUT_LEN .. +NUM_BLOCKS)
A_INPUT = 12         # raw input bytes                     [A_INPUT .. +FILE_SIZE)
A_OUTPUT = 20        # per-block output slots              [A_OUTPUT + b*MAX_BLOCK_OUT ...]
ARENA_SIZE = A_OUTPUT + NUM_BLOCKS * MAX_BLOCK_OUT


def build_program(num_workers: int = NUM_WORKERS) -> L.Program:
    """Build the pbzip model: read, compress on workers, reassemble, verify."""

    # rle_compress(arena, block) -> compressed length of that block.
    rle_compress = L.func(
        "rle_compress", ["arena", "block"],
        L.decl("src", L.add(A_INPUT, L.mul(L.var("block"), BLOCK_SIZE))),
        L.decl("dst", L.add(A_OUTPUT, L.mul(L.var("block"), MAX_BLOCK_OUT))),
        L.decl("i", 0),
        L.decl("out", 0),
        L.while_(L.lt(L.var("i"), BLOCK_SIZE),
            L.decl("byte", L.index(L.var("arena"), L.add(L.var("src"), L.var("i")))),
            L.decl("run", 1),
            L.while_(L.land(L.lt(L.add(L.var("i"), L.var("run")), BLOCK_SIZE),
                            L.eq(L.index(L.var("arena"),
                                         L.add(L.var("src"),
                                               L.add(L.var("i"), L.var("run")))),
                                 L.var("byte"))),
                L.assign("run", L.add(L.var("run"), 1)),
            ),
            L.store(L.var("arena"), L.add(L.var("dst"), L.var("out")), L.var("run")),
            L.store(L.var("arena"), L.add(L.var("dst"), L.add(L.var("out"), 1)),
                    L.var("byte")),
            L.assign("out", L.add(L.var("out"), 2)),
            L.assign("i", L.add(L.var("i"), L.var("run"))),
        ),
        L.store(L.var("arena"), L.add(A_OUT_LEN, L.var("block")), L.var("out")),
        L.ret(L.var("out")),
    )

    # worker(arena): drain the block queue until every block is claimed.
    worker = L.func(
        "worker", ["arena"],
        L.decl("mutex", L.index(L.var("arena"), A_MUTEX)),
        L.decl("not_empty", L.index(L.var("arena"), A_NOT_EMPTY)),
        L.decl("done", L.index(L.var("arena"), A_DONE)),
        L.decl("running", 1),
        L.while_(L.var("running"),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("mutex"))),
            L.while_(L.ge(L.index(L.var("arena"), A_HEAD),
                          L.index(L.var("arena"), A_PRODUCED)),
                L.if_(L.ge(L.index(L.var("arena"), A_HEAD),
                           L.index(L.var("arena"), A_TOTAL)), [L.break_()]),
                L.expr_stmt(L.call("pthread_cond_wait", L.var("not_empty"),
                                   L.var("mutex"))),
            ),
            L.if_(L.ge(L.index(L.var("arena"), A_HEAD),
                       L.index(L.var("arena"), A_TOTAL)), [
                L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
                L.assign("running", 0),
            ], [
                L.decl("block", L.index(L.var("arena"), A_HEAD)),
                L.store(L.var("arena"), A_HEAD,
                        L.add(L.index(L.var("arena"), A_HEAD), 1)),
                L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
                L.expr_stmt(L.call("rle_compress", L.var("arena"), L.var("block"))),
                L.expr_stmt(L.call("pthread_mutex_lock", L.var("mutex"))),
                L.store(L.var("arena"), A_COMPLETED,
                        L.add(L.index(L.var("arena"), A_COMPLETED), 1)),
                L.if_(L.ge(L.index(L.var("arena"), A_COMPLETED),
                           L.index(L.var("arena"), A_TOTAL)), [
                    L.expr_stmt(L.call("pthread_cond_broadcast", L.var("done"))),
                ]),
                L.expr_stmt(L.call("pthread_cond_broadcast", L.var("not_empty"))),
                L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
            ]),
        ),
        L.ret(0),
    )

    # rle_decompress(arena, block, out, pos) -> new output position.
    rle_decompress = L.func(
        "rle_decompress", ["arena", "block", "out", "pos"],
        L.decl("src", L.add(A_OUTPUT, L.mul(L.var("block"), MAX_BLOCK_OUT))),
        L.decl("len", L.index(L.var("arena"), L.add(A_OUT_LEN, L.var("block")))),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("len")),
            L.decl("run", L.index(L.var("arena"), L.add(L.var("src"), L.var("i")))),
            L.decl("byte", L.index(L.var("arena"),
                                   L.add(L.var("src"), L.add(L.var("i"), 1)))),
            L.decl("j", 0),
            L.while_(L.lt(L.var("j"), L.var("run")),
                L.store(L.var("out"), L.var("pos"), L.var("byte")),
                L.assign("pos", L.add(L.var("pos"), 1)),
                L.assign("j", L.add(L.var("j"), 1)),
            ),
            L.assign("i", L.add(L.var("i"), 2)),
        ),
        L.ret(L.var("pos")),
    )

    # main: set up the arena, start the workers, wait, reassemble, verify.
    body = [
        L.decl("arena", L.call("malloc", ARENA_SIZE)),
        L.store(L.var("arena"), A_MUTEX, L.call("pthread_mutex_init")),
        L.store(L.var("arena"), A_NOT_EMPTY, L.call("pthread_cond_init")),
        L.store(L.var("arena"), A_DONE, L.call("pthread_cond_init")),
        L.store(L.var("arena"), A_TOTAL, NUM_BLOCKS),
        # Read the whole input into the arena.
        L.decl("fd", L.call("open", L.strconst("/input"), 0)),
        L.if_(L.eq(L.var("fd"), 0xFFFFFFFF), [L.ret(100)]),
        L.decl("n", L.call("read", L.var("fd"),
                           L.add(L.var("arena"), A_INPUT), FILE_SIZE)),
        L.if_(L.ne(L.var("n"), FILE_SIZE), [L.ret(101)]),
        # Publish every block and start the workers.
        L.store(L.var("arena"), A_PRODUCED, NUM_BLOCKS),
        L.decl("tids", L.call("malloc", num_workers)),
        L.decl("w", 0),
        L.while_(L.lt(L.var("w"), num_workers),
            L.store(L.var("tids"), L.var("w"),
                    L.call("pthread_create", L.strconst("worker"), L.var("arena"))),
            L.assign("w", L.add(L.var("w"), 1)),
        ),
        # Wait for every block to be compressed.
        L.decl("mutex", L.index(L.var("arena"), A_MUTEX)),
        L.decl("done", L.index(L.var("arena"), A_DONE)),
        L.expr_stmt(L.call("pthread_mutex_lock", L.var("mutex"))),
        L.while_(L.lt(L.index(L.var("arena"), A_COMPLETED), NUM_BLOCKS),
            L.expr_stmt(L.call("pthread_cond_wait", L.var("done"), L.var("mutex"))),
        ),
        L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
        L.assign("w", 0),
        L.while_(L.lt(L.var("w"), num_workers),
            L.expr_stmt(L.call("pthread_join", L.index(L.var("tids"), L.var("w")))),
            L.assign("w", L.add(L.var("w"), 1)),
        ),
        # Decompress block by block, in order, and verify.
        L.decl("out", L.call("malloc", FILE_SIZE)),
        L.decl("pos", 0),
        L.decl("b", 0),
        L.decl("total_out", 0),
        L.while_(L.lt(L.var("b"), NUM_BLOCKS),
            L.assign("pos", L.call("rle_decompress", L.var("arena"), L.var("b"),
                                   L.var("out"), L.var("pos"))),
            L.assign("total_out", L.add(L.var("total_out"),
                                        L.index(L.var("arena"),
                                                L.add(A_OUT_LEN, L.var("b"))))),
            L.assign("b", L.add(L.var("b"), 1)),
        ),
        L.assert_(L.eq(L.var("pos"), FILE_SIZE),
                  "decompressed length differs from the input"),
        L.decl("k", 0),
        L.while_(L.lt(L.var("k"), FILE_SIZE),
            L.assert_(L.eq(L.index(L.var("out"), L.var("k")),
                           L.index(L.var("arena"), L.add(A_INPUT, L.var("k")))),
                      "decompressed byte differs from the input"),
            L.assign("k", L.add(L.var("k"), 1)),
        ),
        L.ret(L.var("total_out")),
    ]
    main = L.func("main", [], *body)

    return L.program("pbzip", rle_compress, worker, rle_decompress, main)


def make_setup(contents: bytes = b"aaabbb", symbolic_bytes: int = 0):
    """Setup callback: ``/input`` with optional leading symbolic bytes."""
    if len(contents) != FILE_SIZE:
        raise ValueError("the model compresses exactly %d bytes" % FILE_SIZE)

    def setup(state: ExecutionState) -> None:
        if symbolic_bytes <= 0:
            add_concrete_file(state, "/input", contents)
            return
        cells = list(contents)
        for i in range(min(symbolic_bytes, len(cells))):
            symbol = state.new_symbol("input_byte")
            state.symbolic_inputs.setdefault("input_byte", []).append(symbol)
            cells[i] = symbol
        node = FileNode(path=b"/input", data=BlockBuffer(), symbolic=True)
        node.data.set_contents(cells)
        posix_of(state).own_table("filesystem")[b"/input"] = node

    return setup


def make_concrete_test(contents: bytes = b"aaabbb") -> SymbolicTest:
    """Compress one concrete input on two worker threads (single schedule)."""
    return SymbolicTest(
        name="pbzip-concrete",
        program=build_program(),
        setup=make_setup(contents, symbolic_bytes=0),
    )


def make_symbolic_test(contents: bytes = b"aaabbb",
                       symbolic_bytes: int = 1,
                       fork_schedules: bool = False,
                       max_instructions: int = 400_000) -> SymbolicTest:
    """Compress an input with symbolic bytes; optionally fork thread schedules."""
    options = {}
    if fork_schedules:
        options["fork_schedules"] = True
    return SymbolicTest(
        name="pbzip-symbolic-%d%s" % (symbolic_bytes,
                                      "-schedules" if fork_schedules else ""),
        program=build_program(),
        setup=make_setup(contents, symbolic_bytes=symbolic_bytes),
        options=options,
        engine_config=EngineConfig(max_instructions_per_path=max_instructions),
    )
