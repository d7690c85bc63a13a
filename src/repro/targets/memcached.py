"""A model of memcached's command processing.

Covers the pieces of memcached the paper's evaluation exercises:

* the **binary protocol** (magic byte, opcode, key/value lengths, payload)
  backed by a small in-memory store -- used for the "two symbolic packets"
  exhaustive test of Fig. 7 / Fig. 9 / Fig. 12 / Fig. 13 and the coverage
  accounting of Table 5;
* a **concrete test suite** (the analogue of memcached's own C/Perl suite)
  that drives the server with well-formed commands -- the Table 5 baseline
  and the path along which faults are injected;
* the **UDP frame handling** with the infinite-loop hang of §7.3.3: a
  record-length field of zero makes the datagram scan stop advancing, which
  the per-path instruction limit turns into an ``infinite_loop`` bug report.

The model runs against the POSIX environment model: the test driver and the
server exchange packets through a modeled socket pair, so symbolic bytes
travel through stream buffers exactly as in the paper's setup.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.lang import builder as L
from repro.lang.ast import Function, Program
from repro.engine.config import EngineConfig
from repro.testing.symbolic_test import SymbolicTest

# Binary protocol constants (simplified from the real protocol).
MAGIC_REQUEST = 0x80
OP_GET = 0x00
OP_SET = 0x01
OP_ADD = 0x02
OP_DELETE = 0x04
OP_INCR = 0x05
OP_QUIT = 0x07
OP_NOOP = 0x0A
OP_STAT = 0x10

HEADER_SIZE = 4           # magic, opcode, key length, value length
STORE_SLOTS = 4
SLOT_SIZE = 4             # used flag, key byte, value byte, hit counter
DEFAULT_PACKET_SIZE = 6


def _store_functions() -> List[Function]:
    """The tiny key/value store behind the protocol handlers."""

    store_init = L.func(
        "store_init", [],
        L.decl("store", L.call("malloc", STORE_SLOTS * SLOT_SIZE)),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), STORE_SLOTS * SLOT_SIZE),
            L.store(L.var("store"), L.var("i"), 0),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("store")),
    )

    store_slot = L.func(
        "store_slot", ["key"],
        L.ret(L.mul(L.mod(L.var("key"), STORE_SLOTS), SLOT_SIZE)),
    )

    store_lookup = L.func(
        "store_lookup", ["store", "key"],
        L.decl("slot", L.call("store_slot", L.var("key"))),
        L.if_(L.eq(L.index(L.var("store"), L.var("slot")), 0), [L.ret(0xFFFF)]),
        L.if_(L.ne(L.index(L.var("store"), L.add(L.var("slot"), 1)), L.var("key")),
              [L.ret(0xFFFF)]),
        L.ret(L.var("slot")),
    )

    store_set = L.func(
        "store_set", ["store", "key", "value"],
        L.decl("slot", L.call("store_slot", L.var("key"))),
        L.store(L.var("store"), L.var("slot"), 1),
        L.store(L.var("store"), L.add(L.var("slot"), 1), L.var("key")),
        L.store(L.var("store"), L.add(L.var("slot"), 2), L.var("value")),
        L.ret(0),
    )

    store_delete = L.func(
        "store_delete", ["store", "key"],
        L.decl("slot", L.call("store_lookup", L.var("store"), L.var("key"))),
        L.if_(L.eq(L.var("slot"), 0xFFFF), [L.ret(1)]),
        L.store(L.var("store"), L.var("slot"), 0),
        L.ret(0),
    )

    store_incr = L.func(
        "store_incr", ["store", "key", "amount"],
        L.decl("slot", L.call("store_lookup", L.var("store"), L.var("key"))),
        L.if_(L.eq(L.var("slot"), 0xFFFF), [L.ret(1)]),
        L.decl("value", L.index(L.var("store"), L.add(L.var("slot"), 2))),
        L.store(L.var("store"), L.add(L.var("slot"), 2),
                L.band(L.add(L.var("value"), L.var("amount")), 0xFF)),
        L.ret(0),
    )

    return [store_init, store_slot, store_lookup, store_set, store_delete,
            store_incr]


def _protocol_functions(packet_size: int) -> List[Function]:
    """Binary-protocol parsing and dispatch."""

    # process_command(store, pkt, len) -> 0 ok, 1 protocol error, 2 quit.
    process_command = L.func(
        "process_command", ["store", "pkt", "len"],
        L.if_(L.lt(L.var("len"), HEADER_SIZE), [L.ret(1)]),
        L.decl("magic", L.index(L.var("pkt"), 0)),
        L.if_(L.ne(L.var("magic"), MAGIC_REQUEST), [L.ret(1)]),
        L.decl("opcode", L.index(L.var("pkt"), 1)),
        L.decl("klen", L.index(L.var("pkt"), 2)),
        L.decl("vlen", L.index(L.var("pkt"), 3)),
        # Length validation: header + key + value must fit in the packet.
        L.if_(L.gt(L.add(L.add(L.var("klen"), L.var("vlen")), HEADER_SIZE),
                   L.var("len")),
              [L.ret(1)]),
        L.decl("key", 0),
        L.if_(L.gt(L.var("klen"), 0),
              [L.assign("key", L.index(L.var("pkt"), HEADER_SIZE))]),
        L.decl("value", 0),
        L.if_(L.gt(L.var("vlen"), 0),
              [L.assign("value", L.index(L.var("pkt"),
                                         L.add(HEADER_SIZE, L.var("klen"))))]),
        L.if_(L.eq(L.var("opcode"), OP_NOOP), [L.ret(0)]),
        L.if_(L.eq(L.var("opcode"), OP_QUIT), [L.ret(2)]),
        L.if_(L.eq(L.var("opcode"), OP_STAT), [L.ret(0)]),
        L.if_(L.eq(L.var("opcode"), OP_GET), [
            L.if_(L.eq(L.var("klen"), 0), [L.ret(1)]),
            L.decl("slot", L.call("store_lookup", L.var("store"), L.var("key"))),
            L.if_(L.eq(L.var("slot"), 0xFFFF), [L.ret(0)]),
            L.ret(0),
        ]),
        L.if_(L.eq(L.var("opcode"), OP_SET), [
            L.if_(L.eq(L.var("klen"), 0), [L.ret(1)]),
            L.expr_stmt(L.call("store_set", L.var("store"), L.var("key"),
                               L.var("value"))),
            L.ret(0),
        ]),
        L.if_(L.eq(L.var("opcode"), OP_ADD), [
            L.if_(L.eq(L.var("klen"), 0), [L.ret(1)]),
            L.decl("slot", L.call("store_lookup", L.var("store"), L.var("key"))),
            L.if_(L.ne(L.var("slot"), 0xFFFF), [L.ret(1)]),
            L.expr_stmt(L.call("store_set", L.var("store"), L.var("key"),
                               L.var("value"))),
            L.ret(0),
        ]),
        L.if_(L.eq(L.var("opcode"), OP_DELETE), [
            L.if_(L.eq(L.var("klen"), 0), [L.ret(1)]),
            L.ret(L.call("store_delete", L.var("store"), L.var("key"))),
        ]),
        L.if_(L.eq(L.var("opcode"), OP_INCR), [
            L.if_(L.eq(L.var("klen"), 0), [L.ret(1)]),
            L.ret(L.call("store_incr", L.var("store"), L.var("key"),
                         L.var("value"))),
        ]),
        # Unknown opcode.
        L.ret(1),
    )

    # server_loop(fd, store, max_commands): read packets off a stream socket.
    server_loop = L.func(
        "server_loop", ["fd", "store", "max_commands"],
        L.decl("pkt", L.call("malloc", packet_size)),
        L.decl("handled", 0),
        L.while_(L.lt(L.var("handled"), L.var("max_commands")),
            L.decl("n", L.call("read", L.var("fd"), L.var("pkt"),
                               L.const(packet_size))),
            L.if_(L.le(L.var("n"), 0), [L.break_()]),
            L.decl("status", L.call("process_command", L.var("store"),
                                    L.var("pkt"), L.var("n"))),
            L.if_(L.eq(L.var("status"), 2), [L.break_()]),
            L.assign("handled", L.add(L.var("handled"), 1)),
        ),
        L.ret(L.var("handled")),
    )

    return [process_command, server_loop]


def _udp_functions() -> List[Function]:
    """UDP datagram handling with the record-scan hang of §7.3.3."""

    # process_udp_datagram(store, buf, len) -> records processed.
    # A datagram is a sequence of typed records; the record type determines
    # how far the scan advances.  Type 0 is a zero-size "padding" record the
    # parser forgets to skip, so a datagram containing a 0 byte at a record
    # boundary makes the loop stop advancing -- the infinite-loop hang the
    # paper found with symbolic UDP packets (§7.3.3).
    process_udp_datagram = L.func(
        "process_udp_datagram", ["store", "buf", "len"],
        L.decl("offset", 0),
        L.decl("records", 0),
        L.while_(L.lt(L.var("offset"), L.var("len")),
            L.decl("rtype", L.index(L.var("buf"), L.var("offset"))),
            L.decl("rsize", 0),
            L.if_(L.eq(L.var("rtype"), 1), [L.assign("rsize", 1)]),
            L.if_(L.eq(L.var("rtype"), 2), [L.assign("rsize", 2)]),
            L.if_(L.eq(L.var("rtype"), 3), [L.assign("rsize", 3)]),
            L.if_(L.gt(L.var("rtype"), 3), [L.ret(L.var("records"))]),
            # BUG (modeled after memcached's UDP hang): rtype == 0 leaves
            # rsize at 0, the offset never advances and the loop spins.
            L.if_(L.gt(L.add(L.var("offset"), L.var("rsize")), L.var("len")),
                  [L.ret(L.var("records"))]),
            L.if_(L.ge(L.var("rsize"), 2), [
                L.decl("key", L.index(L.var("buf"), L.add(L.var("offset"), 1))),
                L.expr_stmt(L.call("store_set", L.var("store"), L.var("key"), 1)),
            ]),
            L.assign("offset", L.add(L.var("offset"), L.var("rsize"))),
            L.assign("records", L.add(L.var("records"), 1)),
        ),
        L.ret(L.var("records")),
    )

    udp_server_loop = L.func(
        "udp_server_loop", ["fd", "store", "max_datagrams", "dgram_size"],
        L.decl("buf", L.call("malloc", 16)),
        L.decl("handled", 0),
        L.while_(L.lt(L.var("handled"), L.var("max_datagrams")),
            L.decl("n", L.call("recvfrom", L.var("fd"), L.var("buf"),
                               L.var("dgram_size"))),
            L.if_(L.le(L.var("n"), 0), [L.break_()]),
            L.expr_stmt(L.call("process_udp_datagram", L.var("store"),
                               L.var("buf"), L.var("n"))),
            L.assign("handled", L.add(L.var("handled"), 1)),
        ),
        L.ret(L.var("handled")),
    )

    return [process_udp_datagram, udp_server_loop]


def _driver_symbolic_packets(num_packets: int, packet_size: int) -> Function:
    """main(): send fully symbolic binary packets through a socket pair."""
    body: List[object] = [
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("client", L.index(L.var("pair"), 0)),
        L.decl("server", L.index(L.var("pair"), 1)),
        L.decl("store", L.call("store_init")),
    ]
    for index in range(num_packets):
        name = "packet%d" % index
        body.append(L.decl(name, L.call("cloud9_symbolic_buffer",
                                        L.const(packet_size),
                                        L.strconst(name))))
        body.append(L.expr_stmt(L.call("write", L.var("client"), L.var(name),
                                       L.const(packet_size))))
    body.append(L.decl("handled", L.call("server_loop", L.var("server"),
                                         L.var("store"),
                                         L.const(num_packets))))
    body.append(L.ret(L.var("handled")))
    return L.func("main", [], *body)


def _driver_concrete_suite(commands: Sequence[bytes], packet_size: int) -> Function:
    """main(): replay a suite of concrete binary commands."""
    body: List[object] = [
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("client", L.index(L.var("pair"), 0)),
        L.decl("server", L.index(L.var("pair"), 1)),
        L.decl("store", L.call("store_init")),
        L.decl("pkt", L.call("malloc", packet_size)),
    ]
    for command in commands:
        padded = command.ljust(packet_size, b"\x00")[:packet_size]
        for i, byte in enumerate(padded):
            body.append(L.store(L.var("pkt"), i, byte))
        body.append(L.expr_stmt(L.call("write", L.var("client"), L.var("pkt"),
                                       L.const(packet_size))))
    body.append(L.decl("handled", L.call("server_loop", L.var("server"),
                                         L.var("store"),
                                         L.const(len(commands)))))
    body.append(L.ret(L.var("handled")))
    return L.func("main", [], *body)


def _driver_udp(num_datagrams: int, datagram_size: int) -> Function:
    """main(): feed symbolic UDP datagrams to the UDP handler."""
    body: List[object] = [
        L.decl("sock", L.call("socket", 1, 2)),          # SOCK_DGRAM
        L.expr_stmt(L.call("bind", L.var("sock"), 11211)),
        L.decl("client", L.call("socket", 1, 2)),
        L.decl("store", L.call("store_init")),
    ]
    for index in range(num_datagrams):
        name = "datagram%d" % index
        body.append(L.decl(name, L.call("cloud9_symbolic_buffer",
                                        L.const(datagram_size),
                                        L.strconst(name))))
        body.append(L.expr_stmt(L.call("sendto", L.var("client"), L.var(name),
                                       L.const(datagram_size), 11211)))
    body.append(L.decl("handled", L.call("udp_server_loop", L.var("sock"),
                                         L.var("store"),
                                         L.const(num_datagrams),
                                         L.const(datagram_size))))
    body.append(L.ret(L.var("handled")))
    return L.func("main", [], *body)


def build_program(main: Function, packet_size: int = DEFAULT_PACKET_SIZE) -> Program:
    functions = (_store_functions() + _protocol_functions(packet_size)
                 + _udp_functions() + [main])
    return L.program("memcached", *functions)


# -- concrete test suite (the Table 5 baseline) ----------------------------------------


def concrete_suite_commands() -> List[bytes]:
    """A small "existing test suite": well-formed commands plus a few errors."""
    return [
        bytes([MAGIC_REQUEST, OP_SET, 1, 1, ord("a"), 7]),
        bytes([MAGIC_REQUEST, OP_GET, 1, 0, ord("a")]),
        bytes([MAGIC_REQUEST, OP_ADD, 1, 1, ord("b"), 9]),
        bytes([MAGIC_REQUEST, OP_ADD, 1, 1, ord("a"), 1]),     # add on existing key
        bytes([MAGIC_REQUEST, OP_INCR, 1, 1, ord("a"), 3]),
        bytes([MAGIC_REQUEST, OP_DELETE, 1, 0, ord("b")]),
        bytes([MAGIC_REQUEST, OP_DELETE, 1, 0, ord("z")]),     # delete missing key
        bytes([MAGIC_REQUEST, OP_STAT, 0, 0]),
        bytes([MAGIC_REQUEST, OP_NOOP, 0, 0]),
        bytes([0x13, OP_GET, 1, 0, ord("a")]),                  # bad magic
        bytes([MAGIC_REQUEST, 0x77, 0, 0]),                     # unknown opcode
        bytes([MAGIC_REQUEST, OP_GET, 9, 0, ord("a")]),         # bogus key length
        bytes([MAGIC_REQUEST, OP_QUIT, 0, 0]),
    ]


def binary_protocol_suite_commands() -> List[bytes]:
    """The smaller "binary protocol test suite" row of Table 5."""
    return [
        bytes([MAGIC_REQUEST, OP_SET, 1, 1, ord("k"), 5]),
        bytes([MAGIC_REQUEST, OP_GET, 1, 0, ord("k")]),
        bytes([MAGIC_REQUEST, OP_DELETE, 1, 0, ord("k")]),
        bytes([MAGIC_REQUEST, OP_NOOP, 0, 0]),
        bytes([MAGIC_REQUEST, OP_QUIT, 0, 0]),
    ]


# -- SymbolicTest factories ---------------------------------------------------------------


def make_symbolic_packets_test(num_packets: int = 2,
                               packet_size: int = DEFAULT_PACKET_SIZE,
                               max_instructions: int = 200_000) -> SymbolicTest:
    """The Fig. 7 workload: exhaustive exploration of N symbolic packets."""
    main = _driver_symbolic_packets(num_packets, packet_size)
    return SymbolicTest(
        name="memcached-symbolic-packets-%dx%d" % (num_packets, packet_size),
        program=build_program(main, packet_size),
        engine_config=EngineConfig(max_instructions_per_path=max_instructions),
    )


def make_concrete_suite_test(packet_size: int = DEFAULT_PACKET_SIZE) -> SymbolicTest:
    """The baseline "entire test suite" row of Table 5 (concrete inputs)."""
    main = _driver_concrete_suite(concrete_suite_commands(), packet_size)
    return SymbolicTest(
        name="memcached-concrete-suite",
        program=build_program(main, packet_size),
    )


def make_binary_suite_test(packet_size: int = DEFAULT_PACKET_SIZE) -> SymbolicTest:
    """The "binary protocol test suite" row of Table 5."""
    main = _driver_concrete_suite(binary_protocol_suite_commands(), packet_size)
    return SymbolicTest(
        name="memcached-binary-suite",
        program=build_program(main, packet_size),
    )


def make_fault_injection_test(packet_size: int = DEFAULT_PACKET_SIZE,
                              max_instructions: int = 100_000) -> SymbolicTest:
    """The "test suite + fault injection" row of Table 5.

    The concrete suite is replayed with fault injection enabled on every
    POSIX call, and exploration is ordered by the fewest-faults-first
    strategy, reproducing the uniform fault coverage described in §7.3.3.
    """
    main = _driver_concrete_suite(concrete_suite_commands(), packet_size)
    return SymbolicTest(
        name="memcached-fault-injection",
        program=build_program(main, packet_size),
        options={"fault_injection_all": True},
        engine_config=EngineConfig(max_instructions_per_path=max_instructions),
        strategy="fewest_faults_first",
    )


def make_udp_hang_test(num_datagrams: int = 1, datagram_size: int = 3,
                       max_instructions: int = 2_000) -> SymbolicTest:
    """The §7.3.3 workload: symbolic UDP datagrams with an instruction limit.

    Paths that trigger the record-scan hang exceed the limit and are reported
    as ``infinite_loop`` bugs; healthy paths finish well under it.
    """
    main = _driver_udp(num_datagrams, datagram_size)
    return SymbolicTest(
        name="memcached-udp-symbolic",
        program=build_program(main),
        options={"max_instructions": max_instructions},
        engine_config=EngineConfig(max_instructions_per_path=max_instructions),
    )
