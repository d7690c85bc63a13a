"""Time-related functions over a deterministic virtual clock (§4.3).

Real time sources would break replay determinism (§6 "Broken Replays"): the
same path replayed on another worker must observe the same values.  The model
therefore keeps a per-state virtual clock in
:class:`~repro.posix.data.PosixState`:

* every clock query advances the clock by a fixed small step, so successive
  reads are monotonically increasing (programs that measure elapsed time see
  progress);
* the sleep family advances the clock by the requested duration and yields
  the CPU (cooperative scheduling), rather than blocking -- there is no
  hardware timer to deliver a wake-up, and the paper's scheduler is
  cooperative anyway.
"""

from __future__ import annotations

from repro.engine.natives import NativeContext
from repro.posix.common import copy_cells_to_memory
from repro.posix.data import posix_of

NS_PER_SEC = 1_000_000_000
NS_PER_USEC = 1_000
NS_PER_MSEC = 1_000_000


def _advance(ctx: NativeContext, delta_ns: int = 0) -> int:
    """Advance the virtual clock and return the new value in nanoseconds."""
    posix = posix_of(ctx.state)
    posix.clock_ns += posix.clock_step_ns + max(delta_ns, 0)
    return posix.clock_ns


def _store_u32(ctx: NativeContext, address: int, offset: int, value: int) -> None:
    cells = [(value >> (8 * i)) & 0xFF for i in range(4)]
    copy_cells_to_memory(ctx.state, address + offset, cells)


def posix_time(ctx: NativeContext):
    """``time(tloc)`` -> seconds since the (virtual) epoch."""
    now_ns = _advance(ctx)
    seconds = now_ns // NS_PER_SEC
    tloc = ctx.concrete_arg(0, 0)
    if tloc:
        _store_u32(ctx, tloc, 0, seconds & 0xFFFFFFFF)
    return seconds & 0xFFFFFFFF


def posix_gettimeofday(ctx: NativeContext):
    """``gettimeofday(tv)``: seconds at ``tv[0..3]``, microseconds at ``tv[4..7]``."""
    now_ns = _advance(ctx)
    tv = ctx.concrete_arg(0)
    seconds = now_ns // NS_PER_SEC
    micros = (now_ns % NS_PER_SEC) // NS_PER_USEC
    _store_u32(ctx, tv, 0, seconds & 0xFFFFFFFF)
    _store_u32(ctx, tv, 4, micros & 0xFFFFFFFF)
    return 0


def posix_clock_gettime(ctx: NativeContext):
    """``clock_gettime(clk, ts)``: seconds at ``ts[0..3]``, nanoseconds at ``ts[4..7]``."""
    now_ns = _advance(ctx)
    ts = ctx.concrete_arg(1)
    seconds = now_ns // NS_PER_SEC
    nanos = now_ns % NS_PER_SEC
    _store_u32(ctx, ts, 0, seconds & 0xFFFFFFFF)
    _store_u32(ctx, ts, 4, nanos & 0xFFFFFFFF)
    return 0


def _sleep(ctx: NativeContext, duration_ns: int) -> int:
    _advance(ctx, duration_ns)
    # Yield the CPU: sleeping is a preemption point under cooperative
    # scheduling, so other runnable threads get to make progress.
    ctx.state.options["force_reschedule"] = True
    return 0


def posix_sleep(ctx: NativeContext):
    """``sleep(seconds)`` -> 0 (never interrupted in the model)."""
    return _sleep(ctx, ctx.concrete_arg(0) * NS_PER_SEC)


def posix_usleep(ctx: NativeContext):
    """``usleep(microseconds)`` -> 0."""
    return _sleep(ctx, ctx.concrete_arg(0) * NS_PER_USEC)


def posix_nanosleep(ctx: NativeContext):
    """``nanosleep(seconds, nanoseconds)`` -> 0.

    The model takes the duration as two scalar arguments instead of a
    ``struct timespec`` pointer, which is all the small target language
    needs.
    """
    seconds = ctx.concrete_arg(0, 0)
    nanos = ctx.concrete_arg(1, 0)
    return _sleep(ctx, seconds * NS_PER_SEC + nanos)


def posix_clock_ns(ctx: NativeContext):
    """``c9_clock_ns()``: read the raw virtual clock (testing helper).

    Like every other clock query, reading the raw clock ticks it forward by
    one step, so back-to-back reads observe strictly increasing values (as
    long as the step is non-zero).
    """
    return _advance(ctx) & 0xFFFFFFFF


def posix_set_clock_step(ctx: NativeContext):
    """``c9_set_clock_step(ns)``: configure how fast the virtual clock ticks."""
    posix = posix_of(ctx.state)
    posix.clock_step_ns = max(ctx.concrete_arg(0, 1), 0)
    return 0


HANDLERS = {
    "time": posix_time,
    "gettimeofday": posix_gettimeofday,
    "clock_gettime": posix_clock_gettime,
    "sleep": posix_sleep,
    "usleep": posix_usleep,
    "nanosleep": posix_nanosleep,
    "c9_clock_ns": posix_clock_ns,
    "c9_set_clock_step": posix_set_clock_step,
}
