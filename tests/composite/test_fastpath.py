"""Differential tests: compiled fast path vs authoritative interpreter.

The fast path (:mod:`repro.composite.fastpath`) is only correct if it is
*indistinguishable* from :func:`repro.composite.machine.execute_trace` on
every clean trace: same ``TraceResult`` fields, same final register and
memory state, and — when the trace faults — the same exception type with
the same message.  These tests hold the two tiers to that contract over
a large seeded-random trace population, plus handwritten edge cases for
every op and every fault family.
"""

from __future__ import annotations

import builtins
import functools
import random

import pytest

from repro.composite import fastpath
from repro.composite.fastpath import compile_trace, try_execute_fast
from repro.composite.machine import (
    EAX,
    EBP,
    EBX,
    ECX,
    EDX,
    EDI,
    ESI,
    ESP,
    HANG_LIMIT,
    Injection,
    RegisterFile,
    Trace,
    execute_trace,
)
from repro.composite.memory import MemoryImage
from repro.errors import SimulatedFault

BASE = 0x0200_0000
WORDS = 2048
MAGIC = 0x5EC0FFEE

#: General-purpose registers a random trace computes with (stack registers
#: are exercised separately through push/pop and the harness entry values).
GP_REGS = (EAX, EBX, ECX, EDX, ESI, EDI)


def fresh_image(base: int = BASE, words: int = WORDS) -> MemoryImage:
    image = MemoryImage(base, words)
    record = image.alloc_record(MAGIC, 8)
    for off in range(1, 9):
        image.write_word(record + off, off * 3)
    return image


def fresh_regs(image: MemoryImage, entry: dict) -> RegisterFile:
    regs = RegisterFile()
    regs.write(ESP, image.stack_top)
    regs.write(EBP, image.stack_top)
    for reg, value in entry.items():
        regs.write(reg, value)
    return regs


def random_trace(rng: random.Random, image: MemoryImage) -> Trace:
    """A random but *mostly valid* trace over the machine's full ISA.

    Valid-biased: address registers usually point into the record, checks
    usually pass.  A deliberate minority of ops is broken (bad address,
    wrong magic, failing assertion, hang-sized loop) so the fault paths
    are exercised too — parity matters on both.
    """
    record = image.base + 16  # first record allocated by fresh_image
    trace = Trace(f"rand{rng.randrange(1 << 16)}")
    trace.entry_regs = {
        EAX: record,
        EBX: rng.randrange(1 << 8),
        ECX: rng.randrange(1 << 8),
        EDX: rng.randrange(1 << 8),
        ESI: rng.randrange(1 << 8),
        EDI: rng.randrange(1 << 8),
    }
    if rng.random() < 0.8:
        trace.prologue()
    depth = 0  # words pushed so far (keeps most pops balanced)
    for __ in range(rng.randrange(1, 40)):
        choice = rng.random()
        reg = rng.choice(GP_REGS)
        src = rng.choice(GP_REGS)
        if choice < 0.18:
            trace.li(reg, rng.randrange(1 << 32))
        elif choice < 0.30:
            trace.mov(reg, src)
        elif choice < 0.42:
            # Re-point a register at the record so loads/stores mostly hit.
            if rng.random() < 0.85:
                trace.li(EAX, record)
                trace.ld(reg, EAX, rng.randrange(9))
            else:
                trace.ld(reg, src, rng.randrange(16))
        elif choice < 0.52:
            if rng.random() < 0.85:
                trace.li(EAX, record)
                trace.st(reg, EAX, rng.randrange(1, 9))
            else:
                trace.st(reg, src, rng.randrange(16))
        elif choice < 0.62:
            trace.add(reg, src) if rng.random() < 0.5 else trace.addi(
                reg, rng.randrange(-8, 64)
            )
        elif choice < 0.68:
            trace.xor(reg, src)
        elif choice < 0.76:
            if rng.random() < 0.85:
                trace.li(EAX, record)
                trace.chk(EAX, 0, MAGIC)
            else:
                trace.chk(src, rng.randrange(4), rng.randrange(1 << 32))
        elif choice < 0.84:
            # Mostly-true assertion: set then assert the same value.
            value = rng.randrange(1 << 16)
            if rng.random() < 0.8:
                trace.li(reg, value)
                trace.assert_range(reg, value, value + rng.randrange(4))
            else:
                trace.assert_eq(reg, rng.randrange(1 << 16))
        elif choice < 0.90:
            bound = (
                rng.randrange(64)
                if rng.random() < 0.9
                else HANG_LIMIT + rng.randrange(1 << 8)
            )
            trace.li(ESI, bound)
            trace.loop(ESI, rng.randrange(1, 5))
        elif choice < 0.96:
            trace.push(reg)
            depth += 1
        else:
            if depth > 0 or rng.random() < 0.2:
                trace.pop(reg)
                depth = max(depth - 1, 0)
    if rng.random() < 0.9:
        trace.li(EAX, rng.randrange(1 << 16))
        if rng.random() < 0.5 and trace.ops and trace.ops[0][0] == "push":
            trace.epilogue(EAX)
        else:
            trace.ret(EAX)
    return trace


def run_slow(trace: Trace):
    image = fresh_image()
    regs = fresh_regs(image, trace.entry_regs)
    try:
        result = execute_trace(trace, regs, image, component_name="diff")
    except SimulatedFault as fault:
        return ("fault", type(fault).__name__, str(fault)), None, None
    return (
        ("ok", result.value, result.tainted, result.cycles,
         result.stores_tainted),
        list(regs.values),
        list(image.words),
    )


def run_fast(trace: Trace):
    image = fresh_image()
    regs = fresh_regs(image, trace.entry_regs)
    trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS  # past warm-up: compile now
    trace._compiled = None
    try:
        result = try_execute_fast(trace, regs, image, "diff")
    except SimulatedFault as fault:
        return ("fault", type(fault).__name__, str(fault)), None, None
    assert result is not None, "fast path unexpectedly ineligible"
    return (
        ("ok", result.value, result.tainted, result.cycles,
         result.stores_tainted),
        list(regs.values),
        list(image.words),
    )


class TestDifferentialRandomTraces:
    def test_five_hundred_random_traces_agree(self):
        rng = random.Random(0xD1FF)
        faults = 0
        for __ in range(500):
            trace = random_trace(rng, fresh_image())
            slow, slow_regs, slow_words = run_slow(trace)
            fast, fast_regs, fast_words = run_fast(trace)
            assert slow == fast
            assert slow_regs == fast_regs
            assert slow_words == fast_words
            if slow[0] == "fault":
                faults += 1
        # The population must exercise both outcomes to mean anything.
        assert 0 < faults < 500

    def test_random_traces_with_injection_agree_through_dispatch(self):
        """With an injection pending, both tiers are the slow tier.

        ``Component.execute`` sends injected runs to ``execute_trace``
        unconditionally; the engine-level contract is that an injected
        run behaves identically whether or not the fast path exists.  A
        pre-compiled program must not leak into an injected execution.
        """
        rng = random.Random(0xFA57)
        for __ in range(100):
            trace = random_trace(rng, fresh_image())
            injection_site = rng.randrange(max(len(trace), 1))
            spec = (rng.randrange(8), rng.randrange(32), injection_site)

            def injected_run(precompile: bool):
                image = fresh_image()
                regs = fresh_regs(image, trace.entry_regs)
                if precompile:
                    trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
                    trace._compiled = None
                    compile_trace(trace, image, "diff")
                try:
                    result = execute_trace(
                        trace, regs, image, component_name="diff",
                        injection=Injection(*spec),
                    )
                except SimulatedFault as fault:
                    return ("fault", type(fault).__name__, str(fault))
                return (
                    "ok", result.value, result.tainted, result.cycles,
                    result.stores_tainted,
                )

            assert injected_run(False) == injected_run(True)


#: Operand positions of each op that are immediates rather than
#: registers: the operands a trace's shape leaves out.
IMMEDIATES = {
    "li": (2,), "addi": (2,), "ld": (3,), "st": (3,), "chk": (2, 3),
    "assert_eq": (2,), "assert_range": (2, 3), "loop": (2,),
}


def same_shape_sibling(trace: Trace, rng: random.Random) -> Trace:
    """``trace`` with every immediate changed and every register kept."""
    sibling = Trace(f"{trace.label}-sibling")
    sibling.entry_regs = dict(trace.entry_regs)
    for op in trace.ops:
        op = list(op)
        for field in IMMEDIATES.get(op[0], ()):
            op[field] ^= rng.randrange(1, 4)
        sibling.ops.append(tuple(op))
    return sibling


def slow_tier(trace, regs, image, component):
    return execute_trace(trace, regs, image, component_name=component)


def fast_tier(trace, regs, image, component):
    trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS  # past warm-up
    trace._compiled = None
    result = try_execute_fast(trace, regs, image, component)
    assert result is not None, "fast path unexpectedly ineligible"
    return result


def end_state(tier, trace, make_image, component):
    """Outcome plus, on success, register/memory/dirty-bitmap end state.

    A fault is compared on type, message, the component it names and
    the cycle accounting it carries (``cycles_consumed``, ``op_index``).
    """
    image = make_image()
    regs = fresh_regs(image, trace.entry_regs)
    try:
        result = tier(trace, regs, image, component)
    except SimulatedFault as fault:
        return ("fault", type(fault).__name__, str(fault), fault.component,
                fault.recoverable, fault.cycles_consumed, fault.op_index)
    return (
        ("ok", result.value, result.tainted, result.cycles,
         result.stores_tainted),
        list(regs.values), list(image.words), bytes(image._dirty),
    )


class TestSharedShapeCode:
    """Traces that differ only in immediates share one code object.

    Each random trace is compiled *after* a sibling of the same shape
    (different immediates, different component name), so its program is
    built from the sibling's memoised factory; both must still match the
    slow path exactly, and so must a sibling run on an image with other
    bounds (those are folded as literals, so a trace that touches memory
    gets a shape of its own there: see ``TestCompileCount``).
    """

    def test_random_traces_share_code_and_match_slow_path(self):
        rng = random.Random(0x5A9E)
        other_bounds = functools.partial(fresh_image, BASE + 0x3000, WORDS * 2)
        arms = set()
        for __ in range(300):
            trace = random_trace(rng, fresh_image())
            sibling = same_shape_sibling(trace, rng)
            elsewhere = same_shape_sibling(trace, rng)
            for candidate, make_image, component in (
                (sibling, fresh_image, "sibling"),
                (elsewhere, other_bounds, "diff"),
                (trace, fresh_image, "diff"),
            ):
                slow = end_state(slow_tier, candidate, make_image, component)
                fast = end_state(fast_tier, candidate, make_image, component)
                assert fast == slow
                if slow[0] == "fault":
                    arms.add(slow[1] if "range" not in slow[2] else "range")
            code = trace._compiled.run.__code__
            assert sibling._compiled.run.__code__ is code
            assert sibling._compiled.component_name == "sibling"
        # Every fault helper the generated code calls was exercised.
        assert arms >= {
            "SegmentationFault", "CorruptionDetected", "AssertionFault",
            "range", "SystemHang",
        }


class TestCompileCount:
    def _counted(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_PROGRAM_CACHE", {})
        monkeypatch.setattr(fastpath, "_SHAPE_CACHE", {})
        sources = []

        def counting(source, *args, **kwargs):
            sources.append(source)
            return builtins.compile(source, *args, **kwargs)

        monkeypatch.setattr(fastpath, "compile", counting, raising=False)
        return sources

    @staticmethod
    def _trace(i: int) -> Trace:
        trace = Trace(f"same{i}")
        trace.entry_regs = {EAX: BASE + 16}
        trace.li(EBX, i).addi(EBX, 3 * i).ld(ECX, EAX, 1 + i % 8)
        trace.st(EBX, EAX, 1 + i % 8).chk(EAX, 0, MAGIC)
        trace.assert_range(EBX, 0, 4 * i).li(ESI, i).loop(ESI, 1 + i % 3)
        trace.add(EBX, ECX).ret(EBX)
        return trace

    def test_same_shape_traces_compile_once(self, monkeypatch):
        sources = self._counted(monkeypatch)
        before = dict(fastpath.BUILD_COUNTS)
        image = fresh_image()
        programs = [compile_trace(self._trace(i), image, "t") for i in range(20)]
        assert len(sources) == 1
        assert len({program.run.__code__ for program in programs}) == 1
        assert fastpath.BUILD_COUNTS["programs"] - before["programs"] == 20
        assert fastpath.BUILD_COUNTS["shapes"] - before["shapes"] == 1
        for i, program in enumerate(programs):
            image = fresh_image()
            regs = fresh_regs(image, {EAX: BASE + 16})
            value, __ = program.run(regs.values, image.words, image._dirty)
            assert value == 4 * i + (1 + i % 8) * 3
        # A program-cache hit builds nothing at all.
        assert compile_trace(self._trace(1), image, "t") is programs[1]
        assert fastpath.BUILD_COUNTS["programs"] - before["programs"] == 20

    def test_new_bounds_are_a_new_shape(self, monkeypatch):
        sources = self._counted(monkeypatch)
        compile_trace(self._trace(1), fresh_image(), "t")
        compile_trace(self._trace(2), fresh_image(BASE + 0x1000), "t")
        assert len(sources) == 2


class TestEligibility:
    def _simple_trace(self) -> Trace:
        trace = Trace("simple")
        trace.entry_regs = {EBX: 5}
        trace.li(EAX, 7).add(EAX, EBX).ret(EAX)
        return trace

    def test_warmup_novel_tuple_defers_compile(self, monkeypatch):
        # No pre-compiled program anywhere: the trace must earn a novel
        # compile with NOVEL_COMPILE_RUNS clean executions.
        monkeypatch.setattr(fastpath, "_PROGRAM_CACHE", {})
        image = fresh_image()
        trace = self._simple_trace()
        regs = fresh_regs(image, trace.entry_regs)
        for __ in range(fastpath.NOVEL_COMPILE_RUNS):
            assert try_execute_fast(trace, regs, image, "t") is None
            assert trace._compiled is None
        result = try_execute_fast(trace, regs, image, "t")
        assert result is not None and result.value == 12
        assert trace._compiled is not None

    def test_warmup_cached_tuple_attaches_on_second_run(self, monkeypatch):
        # An identical op tuple already in the program cache attaches on
        # the second clean execution — a dict lookup, not a compile.
        monkeypatch.setattr(fastpath, "_PROGRAM_CACHE", {})
        image = fresh_image()
        donor = self._simple_trace()
        program = compile_trace(donor, image, "t")
        trace = self._simple_trace()
        regs = fresh_regs(image, trace.entry_regs)
        assert try_execute_fast(trace, regs, image, "t") is None
        result = try_execute_fast(trace, regs, image, "t")
        assert result is not None and result.value == 12
        assert trace._compiled is program

    def test_disabled_flag_declines(self, monkeypatch):
        monkeypatch.setattr(fastpath, "FAST_INTERP_ENABLED", False)
        image = fresh_image()
        trace = self._simple_trace()
        trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
        assert try_execute_fast(
            trace, fresh_regs(image, trace.entry_regs), image, "t"
        ) is None

    def test_tainted_register_declines(self):
        image = fresh_image()
        trace = self._simple_trace()
        trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
        regs = fresh_regs(image, trace.entry_regs)
        regs.flip_bit(ECX, 3)
        assert try_execute_fast(trace, regs, image, "t") is None

    def test_tainted_memory_declines(self):
        image = fresh_image()
        trace = self._simple_trace()
        trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
        image.write_word(image.base + 2, 0xBAD, tainted=True)
        assert image.taint_count == 1
        assert try_execute_fast(
            trace, fresh_regs(image, trace.entry_regs), image, "t"
        ) is None
        # Micro-reboot clears the taint census; eligibility returns.
        image.freeze_good_image()
        image.micro_reboot()
        assert image.taint_count == 0
        assert try_execute_fast(
            trace, fresh_regs(image, trace.entry_regs), image, "t"
        ) is not None


class TestCompiledProgramLifecycle:
    def test_program_cached_on_trace(self):
        image = fresh_image()
        trace = Trace("cached")
        trace.li(EAX, 1).ret(EAX)
        trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
        regs = fresh_regs(image, {})
        try_execute_fast(trace, regs, image, "t")
        program = trace._compiled
        assert program is not None
        try_execute_fast(trace, regs, image, "t")
        assert trace._compiled is program  # no recompilation

    def test_appending_ops_invalidates_program(self):
        image = fresh_image()
        trace = Trace("grow")
        trace.li(EAX, 1).ret(EAX)
        trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
        regs = fresh_regs(image, {})
        assert try_execute_fast(trace, regs, image, "t").value == 1
        stale = trace._compiled
        trace.ops.insert(1, ("addi", EAX, 8))
        result = try_execute_fast(trace, regs, image, "t")
        assert trace._compiled is not stale
        assert result.value == 9

    def test_different_memory_recompiles(self):
        image_a = fresh_image()
        image_b = MemoryImage(BASE + 0x1000, WORDS)
        trace = Trace("move")
        trace.li(EAX, 3).ret(EAX)
        trace._clean_runs = fastpath.NOVEL_COMPILE_RUNS
        try_execute_fast(trace, fresh_regs(image_a, {}), image_a, "t")
        in_a = trace._compiled
        try_execute_fast(trace, fresh_regs(image_b, {}), image_b, "t")
        assert trace._compiled is not in_a
        assert trace._compiled.base == image_b.base

    def test_fall_off_end_returns_zero(self):
        trace = Trace("noend")
        trace.li(EBX, 42)
        slow = run_slow(trace)
        assert slow == run_fast(trace)
        assert slow[0][1] == 0

    def test_ops_after_ret_are_dead(self):
        trace = Trace("deadtail")
        trace.li(EAX, 6).ret(EAX)
        trace.li(EAX, 99)  # unreachable in the straight-line ISA
        assert run_slow(trace) == run_fast(trace)

    def test_loop_cycles_match(self):
        for bound in (0, 1, 63, 4096):
            trace = Trace("loopcyc")
            trace.li(ESI, bound).loop(ESI, 3).li(EAX, 0).ret(EAX)
            assert run_slow(trace) == run_fast(trace)

    def test_hang_parity(self):
        trace = Trace("hang")
        trace.li(ESI, HANG_LIMIT + 1).loop(ESI, 2)
        slow = run_slow(trace)[0]
        fast = run_fast(trace)[0]
        assert slow == fast
        assert slow[1] == "SystemHang"


class TestFaultMessageParity:
    @pytest.mark.parametrize("build,expected", [
        (lambda t: t.li(EBX, 0x10).ld(ECX, EBX, 0), "SegmentationFault"),
        (lambda t: t.li(EBX, BASE).chk(EBX, 0, 0x1234), "CorruptionDetected"),
        (lambda t: t.li(EBX, 7).assert_eq(EBX, 8), "AssertionFault"),
        (lambda t: t.li(EBX, 7).assert_range(EBX, 9, 12), "AssertionFault"),
        (lambda t: t.push(EAX).pop(EBX).pop(ECX), "SegmentationFault"),
    ])
    def test_fault_type_and_message_identical(self, build, expected):
        trace = Trace("faulty")
        build(trace)
        slow = run_slow(trace)[0]
        fast = run_fast(trace)[0]
        assert slow == fast
        assert slow[0] == "fault" and slow[1] == expected
