"""Randomized fuzz for checkpoint placement and reconstruction.

Two independent oracles, checked at *every* scan-built checkpoint of
traces recorded with small blocks (seams sit at block boundaries) and
scanned at random intervals:

* **stream resumption** — decoding from the checkpoint's offset with
  its codec state must reproduce, record for record, the tail of a
  serial decode paused at the same event index (this pins the
  delta/clock seeding);
* **state reconstruction** — memory rebuilt via
  :func:`restore_memory` must equal a reference built by replaying
  the event prefix through the *real* :class:`Memory` (frames, stack
  top, heap blocks and free lists, allocation registry, popped-frame
  marker), and the checkpointed shadow/construct stacks must equal
  reference copies built with the real ShadowMemory/IndexingStack —
  catching any drift between the scan's lightweight mirror and the
  semantics replay actually applies.

Sources of randomness: bundled workloads under random checkpoint
intervals and block sizes (seeded), plus hypothesis-fuzzed random
programs run end-to-end through record -> scan -> verify.
"""

import random

import pytest
from hypothesis import given, settings

from repro.analysis.constructs import ConstructTable
from repro.core.indexing import IndexingStack
from repro.core.pool import NodeAllocator
from repro.core.profile_data import ProfileStore
from repro.core.shadow import ShadowMemory
from repro.ir.lowering import compile_source
from repro.lang.errors import SemanticError
from repro.lang.pretty import pretty_print
from repro.runtime.errors import MiniCRuntimeError, StepLimitExceeded
from repro.runtime.memory import Memory
from repro.trace.events import (EV_ALLOC, EV_BLOCK, EV_BRANCH,
                                EV_CHECKPOINT, EV_ENTER, EV_EXIT,
                                EV_FINISH, EV_FREE, EV_READ, EV_WRITE)
from repro.trace.reader import TraceReader
from repro.trace.shards import build_checkpoints, restore_memory
from repro.workloads import get
from tests.lang.test_pretty import _programs
from tests.trace.recording import record_blocks, record_legacy


class _Reference:
    """Serial replay of the event prefix with the *real* runtime
    structures — the ground truth every checkpoint is held to."""

    def __init__(self, program, header):
        self.memory = Memory(program, header.stack_limit)
        self.shadow = ShadowMemory()
        self.stack = IndexingStack(ConstructTable(program),
                                   NodeAllocator(64), ProfileStore())
        self.functions = [program.functions[name]
                          for name in header.functions]
        self.heap_base = self.memory.heap_base

    def apply(self, etype, a, b, t):
        if etype == EV_READ:
            self.shadow.on_read(a, b, None, t)
        elif etype == EV_WRITE:
            self.shadow.on_write(a, b, None, t)
        elif etype == EV_BLOCK:
            self.stack.on_block_enter(a, t)
        elif etype == EV_BRANCH:
            self.stack.on_branch(a, b, t)
        elif etype == EV_ENTER:
            self.memory.push_frame(self.functions[a])
            self.stack.enter_procedure(self.functions[a].entry_pc, t)
        elif etype == EV_EXIT:
            self.stack.exit_procedure(t)
            self.memory.pop_frame()
        elif etype == EV_FREE:
            if b and a >= self.heap_base:
                self.memory.heap_free(a)
            self.shadow.clear_range(a, a + b)
        elif etype == EV_ALLOC:
            assert self.memory.heap_alloc(b) == a
        else:
            assert etype in (EV_FINISH, EV_CHECKPOINT)


def _memory_fingerprint(memory: Memory):
    return {
        "stack_top": memory.stack_top,
        "frames": [(fr.fn.name, fr.base, fr.size)
                   for fr in memory.frames],
        "last_popped": (None if memory.last_popped is None else
                        (memory.last_popped.fn.name,
                         memory.last_popped.base)),
        "heap_top": memory.heap_top,
        "blocks": dict(memory._heap_blocks),
        "bases": list(memory._heap_bases),
        "free": {size: list(bases)
                 for size, bases in memory._free_by_size.items()
                 if bases},
        "next_id": memory._next_heap_id,
        "allocations": dict(memory.allocations),
    }


def _shadow_fingerprint(shadow: ShadowMemory):
    out = {}
    for addr, (write, reads) in shadow._entries.items():
        out[addr] = ((None if write is None else (write[0], write[2])),
                     {pc: t for pc, (_n, t) in reads.items()})
    return out


def _verify_trace(path, interval):
    """Assert both oracles at every scan-built checkpoint; returns how
    many there were."""
    checkpoints = build_checkpoints(path, interval=interval)
    with TraceReader(path) as reader:
        header = reader.header
        program = compile_source(header.source, header.filename)
        serial_events = list(reader.events())

        reference = _Reference(program, header)
        consumed = 0
        for checkpoint in checkpoints:
            while consumed < checkpoint.index:
                reference.apply(*serial_events[consumed])
                consumed += 1

            # Oracle 1: the resumed stream equals the serial tail.
            resumed = [row for batch in reader.batches_from(
                checkpoint.offset, checkpoint.decoder_state())
                for row in batch.rows()]
            assert resumed == serial_events[checkpoint.index:], \
                f"stream diverges at checkpoint {checkpoint.index}"

            # Oracle 2a: reconstructed memory equals the reference.
            restored = restore_memory(program, header, checkpoint)
            assert _memory_fingerprint(restored) == \
                _memory_fingerprint(reference.memory), \
                f"memory diverges at checkpoint {checkpoint.index}"

            # Oracle 2b: checkpointed shadow equals the reference's.
            snapshot = {addr: (write, reads) for addr, write, reads
                        in checkpoint.shadow_entries()}
            assert snapshot == _shadow_fingerprint(reference.shadow), \
                f"shadow diverges at checkpoint {checkpoint.index}"

            # Oracle 2c: construct stack (pc, Tenter) matches.
            assert [tuple(e) for e in checkpoint.cstack] == \
                [(n.static.pc, n.t_enter)
                 for n in reference.stack.stack], \
                f"construct stack diverges at {checkpoint.index}"

            assert checkpoint.time == (
                serial_events[checkpoint.index - 1][3]
                if checkpoint.index else 0)
    return len(checkpoints)


class TestWorkloadCheckpoints:
    @pytest.mark.parametrize("workload,scale", [("gzip", 0.2),
                                                ("wordcount", 0.5),
                                                ("lisp-cons", 0.5)])
    def test_random_intervals(self, tmp_path, workload, scale):
        rng = random.Random(f"ckpt-{workload}")
        source = get(workload, scale).source
        for trial in range(3):
            interval = rng.randint(200, 4000)
            path = str(tmp_path / f"{workload}-{trial}.trace")
            record_blocks(source, path,
                          block_bytes=rng.choice((128, 256, 512)))
            assert _verify_trace(path, interval), \
                "fuzz case produced no checkpoints"

    def test_legacy_trace_scan_checkpoints(self, tmp_path):
        """Scan seams over a trace carrying no-op EV_CHECKPOINT markers
        (the pre-scan-only layout) hold to the same oracles."""
        path = str(tmp_path / "legacy.trace")
        record_legacy(get("gzip", 0.2).source, path, interval=1500,
                      block_bytes=512)
        assert _verify_trace(path, 1000)


class TestRandomProgramCheckpoints:
    @given(_programs)
    @settings(max_examples=25, deadline=None)
    def test_generated_programs_checkpoint_exactly(self, program_ast):
        import os
        import tempfile

        source = pretty_print(program_ast)
        try:
            compile_source(source)
        except SemanticError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.trace")
            try:
                record_blocks(source, path, block_bytes=64,
                              max_steps=20_000)
            except (MiniCRuntimeError, StepLimitExceeded):
                return  # wild pointers / infinite loops: legitimate
            # A program too short to seam has nothing to verify.
            _verify_trace(path, 150)
