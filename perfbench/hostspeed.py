"""Host-speed reference: a fixed piece of work timed next to every op.

The benchmark gets a few cores of a shared host, and the speed those
cores give drifts by up to about 2.5x, in phases that last from
under a second to minutes. Wall time alone would then measure the host as
much as the program. So every timed op is bracketed by runs of
this reference, which calls no code of the product, and the op's wall
time is scaled by how fast the reference ran next to it::

    normalized = wall * (NOMINAL_S / reference_s) ** EXPONENT

That is the time the op would take on a host where the reference
takes ``NOMINAL_S``, about what it takes on an unloaded core of the
2-core x86-64 virtual machine the benchmark was written on. A change to
the product cannot move the reference; a phase of the host that slows
everything moves both the op and the reference, and cancels.

The ops slow down less than the reference does: across that machine's
phases (the reference taking 4.5 to 12 ms), op times moved as about
the 0.65th to 0.85th power of the reference's time, depending on the
workload. ``EXPONENT`` is the middle of that range; with 1 a contended
phase would read up to about a fifth faster than a quiet one.

The reference mixes what the product spends its time on: a small
register machine dispatching on opcode strings with a tracer call per
memory access, like the product's interpreter, and scattered reads
over a few megabytes. It allocates two small objects a run, so it
hardly ever starts the cyclic garbage collector and pays for no
garbage the op left behind.
"""

from __future__ import annotations

import random
import statistics
import time

#: What the reference takes on the benchmark's nominal host, seconds.
NOMINAL_S = 0.005
#: How op times scale with the reference's time (see above).
EXPONENT = 0.75
#: Ops on each side whose reference runs give an op's host speed.
REACH = 2


class _Instr:
    __slots__ = ("opcode", "dst", "src", "addr")

    def __init__(self, opcode, dst, src, addr):
        self.opcode, self.dst, self.src, self.addr = opcode, dst, src, addr


class _Sink:
    """Stands in for a tracer: one method call per memory access."""

    __slots__ = ("last",)

    def __init__(self):
        self.last = [0, 0]

    def on_access(self, addr, pc):
        self.last[addr & 1] = pc


_CODE = [_Instr(op, i % 8, (i * 3) % 8, (i * 37) % 512)
         for i, op in enumerate(("load", "binop", "store", "move") * 64)]
_CELLS = [0] * 512
_BIG = bytes(range(256)) * 16_384
_WALK = random.Random(0).sample(range(len(_BIG)), 20_000)


def _walk() -> int:
    big = _BIG
    total = 0
    for index in _WALK:
        total += big[index]
    return total


def _interpret() -> int:
    """A register machine in the shape of the product's interpreter:
    an if-chain on opcode strings, slot reads, list cells and a call
    into a tracer per access."""
    code, cells, sink = _CODE, _CELLS, _Sink()
    regs = [1] * 8
    for _ in range(150):
        for pc, instr in enumerate(code):
            op = instr.opcode
            if op == "load":
                sink.on_access(instr.addr, pc)
                regs[instr.dst] = cells[instr.addr]
            elif op == "store":
                cells[instr.addr] = regs[instr.src]
                sink.on_access(instr.addr, pc)
            elif op == "binop":
                regs[instr.dst] = (regs[instr.dst] + regs[instr.src]) & 255
            elif op == "move":
                regs[instr.dst] = regs[instr.src]
    return sum(regs)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference. An untimed walk first
    brings its bytes back into the caches, so what the op before it
    evicted does not count."""
    _walk()
    start = time.perf_counter()
    _interpret()
    _walk()
    return time.perf_counter() - start


def normalized(walls: list[float], references: list[float]) -> list[float]:
    """``walls[i]`` rescaled to the nominal host.

    ``references[i]`` and ``references[i + 1]`` are the reference runs
    just before and just after op ``i``. The host speed next to op
    ``i`` is the median of the runs around ops ``i - REACH`` to
    ``i + REACH``: a stall of a few milliseconds can double one run of
    the reference but hardly moves an op, while a phase of the host
    lasts many ops."""
    out = []
    for i, wall in enumerate(walls):
        window = references[max(0, i - REACH):i + REACH + 2]
        out.append(wall * (NOMINAL_S / statistics.median(window)) ** EXPONENT)
    return out
