"""Tier-2 execution engine: per-trace compiled clean-path interpreter.

The authoritative interpreter (:func:`repro.composite.machine.execute_trace`)
dispatches every micro-op through a string-keyed if/elif chain and threads
taint through every register and memory access.  On the *clean* path — no
pending :class:`~repro.composite.machine.Injection`, no tainted register,
no tainted word in the image — all of that bookkeeping is provably inert:
taint can only be introduced by a bit flip, so a taint-free start implies a
taint-free trace.  That clean path is ~100% of campaign executions (each
run delivers at most one injection into exactly one trace) and 100% of
webserver traffic.

This module compiles a :class:`~repro.composite.machine.Trace` into a
single specialised Python function — straight-line direct-threaded code:
one statement sequence per micro-op, register indices, memory bounds and
``OP_CYCLES`` partials folded in as literals, no per-op dispatch and no
taint tracking.  The compiled program runs against the register-value list
and the image's 32-bit word view (``MemoryImage.words``), and raises
exactly the same fault types (and messages) as the slow path.

Compiling is split in two so that its cost is paid per *shape*, not per
trace.  Campaign traces fold seed-dependent record values into their ops,
so most novel op tuples differ from one already seen only in immediates
(``li``/``addi`` values, offsets, the ``chk`` magic, assertion bounds, the
``loop`` multiplier).  Those are passed as closure cells: the generated
source is a factory ``_factory(<fault helpers>, k0, k1, ...)`` returning
the ``_compiled`` closure, and it is memoised under its body.  A new
shape pays one ``builtins.compile`` (~1–2 ms); every further program of
that shape is one factory call (microseconds) and shares its code object.

The slow path remains authoritative: :func:`try_execute_fast` returns
``None`` whenever its preconditions do not hold (pending injection is
checked by the caller; taint is checked here), and the caller falls back
to ``execute_trace``.  The differential test suite in
``tests/composite/test_fastpath.py`` holds the two tiers to identical
results — (value, taint, cycles, stores_tainted), register/memory end
state, and raised-fault parity — over randomized traces.

Set ``REPRO_FAST_INTERP=0`` to disable compilation (every execution then
takes the slow path); the companion tier-1 trace cache is gated separately
by ``REPRO_TRACE_CACHE`` (see :mod:`repro.composite.services.common`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Optional

from repro.composite.machine import (
    ESP,
    HANG_LIMIT,
    OP_CYCLES,
    REG_NAMES,
    Trace,
    TraceResult,
    WORD_MASK,
)
from repro.composite.memory import PAGE_SHIFT
from repro.errors import (
    AssertionFault,
    CorruptionDetected,
    SegmentationFault,
    SystemHang,
)

#: Module-level gate, read from ``REPRO_FAST_INTERP`` at import.  Tests
#: monkeypatch this attribute to force the slow path.
FAST_INTERP_ENABLED = os.environ.get("REPRO_FAST_INTERP", "1") != "0"

#: Clean executions a trace must prove before the fast path will build a
#: program for a *novel* op tuple (a program-cache miss: a factory call
#: if the shape is known, else a ~1–2 ms shape compile).  Attaching an
#: already-built program is a dict lookup, so that happens on the second
#: clean execution regardless.  The bar keeps one-off long-tail traces
#: (op lists unique per cache key: seed-dependent record values folded
#: into the ops) interpreted, and it is also the promotion policy that
#: ``--trace`` artifacts record (``fastpath_compile`` events, ``fast``
#: flags), so it stays fixed however cheap a build gets.
NOVEL_COMPILE_RUNS = 8


class FastProgram:
    """A trace compiled for one (image bounds, component) context.

    A program depends only on the image's ``base``/``size`` (literals in
    its code) and the component name (in fault messages) — never on the
    image object — so it is valid for *any* image with the same bounds.
    That is what lets the module-level program cache below share builds
    across the fresh systems a SWIFI campaign builds per run.
    """

    __slots__ = (
        "run", "base", "size", "component_name", "n_ops", "trace_len",
    )

    def __init__(self, run, base: int, size: int, component_name: str,
                 n_ops: int, trace_len: int):
        #: ``run(values, words, dirty) -> (ret_value, cycles)``; raises
        #: the simulated-fault family exactly as the slow path would.
        #: ``dirty`` is the image's dirty-page bitmap: every compiled
        #: store marks its page, same as ``MemoryImage.write_word``.
        self.run = run
        self.base = base
        self.size = size
        self.component_name = component_name
        #: Ops actually compiled (stops at the first unconditional ret).
        self.n_ops = n_ops
        #: len(trace.ops) at compile time — staleness guard against a
        #: builder appending ops after compilation.
        self.trace_len = trace_len


#: Module-level compiled-program memo.  A SWIFI campaign builds a fresh
#: system per run, so per-trace caching alone would recompile the same op
#: lists hundreds of times; keying on the full op tuple amortises each
#: compile across the whole campaign.  Bounded FIFO, same policy as the
#: tier-1 trace cache.
_PROGRAM_CACHE: dict = {}
_PROGRAM_CACHE_CAPACITY = 4096

#: Shape memo: generated ``_compiled`` body -> its compiled factory.  A
#: pure cost cache — a factory call yields the same program a fresh
#: compile would — so unlike ``_PROGRAM_CACHE`` it is never swapped out
#: for a traced run.  Bounded FIFO, same capacity policy.
_SHAPE_CACHE: dict = {}

#: Names the fault helpers take in generated code (factory parameters).
_HELPER_NAMES = ("_oob", "_chk_fail", "_aeq_fail", "_arange_fail", "_hang")

#: Process-lifetime build counters, read by ``scripts/profile_campaign.py``
#: and never exported into kernel stats or artifacts: ``programs`` counts
#: FastPrograms built (program-cache misses), ``shapes`` the factories
#: compiled for them — the only ``builtins.compile`` calls tier 2 makes.
BUILD_COUNTS = {"programs": 0, "shapes": 0}


@contextmanager
def private_program_cache():
    """Run a block against an empty compiled-program memo of its own.

    Which traces take the compiled path depends on what the memo already
    holds, and a flight-recorded run exports exactly that (its
    ``fastpath_compile`` events, ``fast`` flags and fast-run counters).
    A traced run must be a pure function of its spec and seed, not of
    the runs this process executed before it, so it starts cold and
    leaves the shared memo as it found it.
    """
    global _PROGRAM_CACHE
    shared = _PROGRAM_CACHE
    _PROGRAM_CACHE = {}
    try:
        yield
    finally:
        _PROGRAM_CACHE = shared


@lru_cache(maxsize=256)
def _fault_helpers(component_name: str) -> tuple:
    """Fault constructors matching the slow path's messages exactly.

    Returned in ``_HELPER_NAMES`` order, and shared by every program of
    the component (they depend on nothing but its name).

    The clean path carries no taint, so a stack access through a bad
    ESP/EBP can only be an untainted (recoverable) segmentation fault —
    the SystemCrash arm of ``_check_addr`` is unreachable here.

    Each helper receives the statically folded partial cycle total and
    the faulting op index (literals in the generated code, so the clean
    path pays nothing for them) and stamps them onto the fault, keeping
    fast-path faults cycle-accountable exactly like the slow path's.
    """

    def _stamp(fault, consumed: int, op_index: int):
        fault.cycles_consumed = consumed
        fault.op_index = op_index
        raise fault

    def oob(addr: int, reg: int, consumed: int, op_index: int):
        _stamp(
            SegmentationFault(
                f"access to unmapped address {addr:#x} "
                f"(via {REG_NAMES[reg]})",
                component=component_name,
            ),
            consumed, op_index,
        )

    def chk_fail(addr: int, word: int, magic: int, consumed: int, op_index: int):
        _stamp(
            CorruptionDetected(
                f"magic check failed at {addr:#x}: "
                f"{word:#x} != {magic:#x}",
                component=component_name,
            ),
            consumed, op_index,
        )

    def assert_eq_fail(reg: int, value: int, imm: int, consumed: int, op_index: int):
        _stamp(
            AssertionFault(
                f"assertion failed: {REG_NAMES[reg]}="
                f"{value:#x} != {imm:#x}",
                component=component_name,
            ),
            consumed, op_index,
        )

    def assert_range_fail(reg: int, value: int, lo: int, hi: int, consumed: int, op_index: int):
        _stamp(
            AssertionFault(
                f"range assertion failed: {REG_NAMES[reg]}="
                f"{value:#x} not in [{lo:#x}, {hi:#x}]",
                component=component_name,
            ),
            consumed, op_index,
        )

    def hang(iters: int, consumed: int, op_index: int):
        _stamp(
            SystemHang(
                f"loop bound {iters:#x} exceeds hang budget",
                component=component_name,
            ),
            consumed, op_index,
        )

    return oob, chk_fail, assert_eq_fail, assert_range_fail, hang


def _generate(ops, base: int, end: int):
    """Generate the body of ``_compiled`` for ``ops`` against [base, end).

    Returns ``(body, immediates, n_ops)``.  Register indices, the image
    bounds, ``WORD_MASK``/``PAGE_SHIFT``/``HANG_LIMIT``, op indices and
    the folded cycle partials are literals; every per-op immediate (``li``
    and ``addi`` values, ``ld``/``st``/``chk`` offsets, the ``chk`` magic,
    ``assert_*`` bounds, the ``loop`` multiplier) is the free variable
    ``k<i>`` instead, bound to ``immediates[i]`` by the shape's factory.
    So ``body`` is the trace's shape: traces that differ only in
    immediates generate the same body and share one code object.
    """
    immediates = []

    def imm(value) -> str:
        immediates.append(value)
        return f"k{len(immediates) - 1}"

    lines = ["def _compiled(v, w, d):"]
    emit = lines.append
    cycles = 0  # static cycle total, folded at compile time
    has_loop = False
    n_ops = 0

    for op_index, op in enumerate(ops):
        code = op[0]
        cycles += OP_CYCLES[code]
        n_ops += 1
        # Cycles consumed if this op faults, folded into the generated
        # fault calls as a literal (plus the dynamic loop term once a
        # loop op has appeared) — mirrors the slow path's accounting.
        part = f"{cycles} + cyc" if has_loop or code == "loop" else str(cycles)
        if code == "li":
            emit(f"    v[{op[1]}] = {imm(op[2])}")
        elif code == "mov":
            emit(f"    v[{op[1]}] = v[{op[2]}]")
        elif code == "ld":
            emit(f"    x = (v[{op[2]}] + {imm(op[3])}) & {WORD_MASK}")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {op[2]}, {part}, {op_index})")
            emit(f"    v[{op[1]}] = w[x - {base}]")
        elif code == "st":
            emit(f"    x = (v[{op[2]}] + {imm(op[3])}) & {WORD_MASK}")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {op[2]}, {part}, {op_index})")
            emit(f"    x -= {base}")
            emit(f"    w[x] = v[{op[1]}]")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
        elif code == "add":
            emit(f"    v[{op[1]}] = (v[{op[1]}] + v[{op[2]}]) & {WORD_MASK}")
        elif code == "addi":
            emit(f"    v[{op[1]}] = (v[{op[1]}] + {imm(op[2])}) & {WORD_MASK}")
        elif code == "xor":
            emit(f"    v[{op[1]}] ^= v[{op[2]}]")
        elif code == "chk":
            emit(f"    x = (v[{op[1]}] + {imm(op[2])}) & {WORD_MASK}")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {op[1]}, {part}, {op_index})")
            magic = imm(op[3])
            emit(f"    if w[x - {base}] != {magic}: "
                 f"_chk_fail(x, w[x - {base}], {magic}, {part}, {op_index})")
        elif code == "assert_eq":
            value = imm(op[2])
            emit(f"    if v[{op[1]}] != {value}: "
                 f"_aeq_fail({op[1]}, v[{op[1]}], {value}, {part}, {op_index})")
        elif code == "assert_range":
            lo, hi = imm(op[2]), imm(op[3])
            emit(f"    if not {lo} <= v[{op[1]}] <= {hi}: "
                 f"_arange_fail({op[1]}, v[{op[1]}], {lo}, {hi}, "
                 f"{part}, {op_index})")
        elif code == "loop":
            has_loop = True
            emit(f"    n = v[{op[1]}]")
            emit(f"    if n > {HANG_LIMIT}: _hang(n, {part}, {op_index})")
            emit(f"    cyc += n * {imm(op[2])}")
        elif code == "push":
            emit(f"    x = (v[{ESP}] - 1) & {WORD_MASK}")
            emit(f"    v[{ESP}] = x")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {ESP}, {part}, {op_index})")
            emit(f"    x -= {base}")
            emit(f"    w[x] = v[{op[1]}]")
            emit(f"    d[x >> {PAGE_SHIFT}] = 1")
        elif code == "pop":
            emit(f"    x = v[{ESP}]")
            emit(f"    if not {base} <= x < {end}: "
                 f"_oob(x, {ESP}, {part}, {op_index})")
            emit(f"    v[{op[1]}] = w[x - {base}]")
            emit(f"    v[{ESP}] = (x + 1) & {WORD_MASK}")
        elif code == "ret":
            total = f"{cycles} + cyc" if has_loop else str(cycles)
            emit(f"    return v[{op[1]}], {total}")
            break  # straight-line ISA: ops past an unconditional ret are dead
        else:  # pragma: no cover - defensive, mirrors the slow path
            raise AssertionError(f"unknown micro-op {code!r}")
    else:
        # Trace fell off the end without a ret: the slow path returns 0.
        total = f"{cycles} + cyc" if has_loop else str(cycles)
        emit(f"    return 0, {total}")

    if has_loop:
        lines.insert(1, "    cyc = 0")
    return "\n".join(lines), immediates, n_ops


def _compile_shape(body: str, n_immediates: int):
    """Compile the factory for one shape and memo it under ``body``.

    ``_factory(<fault helpers>, k0, k1, ...)`` returns a fresh
    ``_compiled`` closure over its arguments; every closure it returns
    shares the one code object compiled here.
    """
    params = ", ".join(_HELPER_NAMES + tuple(
        f"k{i}" for i in range(n_immediates)
    ))
    source = "\n".join(
        [f"def _factory({params}):"]
        + ["    " + line for line in body.split("\n")]
        + ["    return _compiled"]
    )
    namespace: dict = {}
    exec(compile(source, "<fastpath>", "exec"), namespace)
    factory = namespace["_factory"]
    BUILD_COUNTS["shapes"] += 1
    if len(_SHAPE_CACHE) >= _PROGRAM_CACHE_CAPACITY:
        _SHAPE_CACHE.pop(next(iter(_SHAPE_CACHE)))
    _SHAPE_CACHE[body] = factory
    return factory


def compile_trace(trace: Trace, memory, component_name: str = "?") -> FastProgram:
    """Compile ``trace`` into a specialised clean-path function.

    ``memory`` is the :class:`~repro.composite.memory.MemoryImage` the
    trace will execute against; its base/size are folded into the code as
    literal bounds.  The ``words`` view is still passed per call so the
    program survives ``micro_reboot`` (which restores words in place) and
    transfers to any other image with the same bounds.

    Only a trace whose shape is new pays ``builtins.compile``; any other
    program is one call of its shape's memoised factory.
    """
    cache_key = (component_name, memory.base, memory.size, tuple(trace.ops))
    cached = _PROGRAM_CACHE.get(cache_key)
    if cached is not None:
        return cached
    body, immediates, n_ops = _generate(
        trace.ops, memory.base, memory.base + memory.size
    )
    factory = _SHAPE_CACHE.get(body)
    if factory is None:
        factory = _compile_shape(body, len(immediates))
    program = FastProgram(
        factory(*_fault_helpers(component_name), *immediates),
        memory.base, memory.size, component_name, n_ops, len(trace.ops),
    )
    BUILD_COUNTS["programs"] += 1
    if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAPACITY:
        _PROGRAM_CACHE.pop(next(iter(_PROGRAM_CACHE)))
    _PROGRAM_CACHE[cache_key] = program
    return program


def try_execute_fast(
    trace: Trace, regs, memory, component_name: str = "?", recorder=None
) -> Optional[TraceResult]:
    """Execute ``trace`` on the compiled clean path, if eligible.

    Returns ``None`` when the fast path cannot be used (disabled, tainted
    register, or tainted image word) — the caller must then fall back to
    :func:`~repro.composite.machine.execute_trace`.  The caller is
    responsible for ensuring no injection is pending.  Simulated faults
    propagate exactly as from the slow path.

    ``recorder`` is an (already enabled) flight recorder, or ``None``;
    it observes only the compile/attach boundary — nothing is emitted
    per executed micro-op, so tracing cannot perturb the fast path's
    per-op loop.
    """
    if not FAST_INTERP_ENABLED:
        return None
    try:
        tainted = memory._taint
    except AttributeError:
        # Not a MemoryImage stand-in we know how to vet: stay slow.
        return None
    if tainted or True in regs.taint:
        return None
    program = trace._compiled
    if (
        program is None
        or program.base != memory.base
        or program.size != memory.size
        or program.trace_len != len(trace.ops)
        or program.component_name != component_name
    ):
        runs = trace._clean_runs
        if runs == 0:
            # Warm-up: compiling costs far more than one interpreted run,
            # so a trace must prove it is re-executed (cache-hit service
            # traces, reused tracking traces) before it is compiled.
            # One-shot traces take the slow path forever.
            trace._clean_runs = 1
            return None
        if runs < NOVEL_COMPILE_RUNS:
            # Re-executed, but not yet hot enough to justify compiling
            # from scratch.  If an identical op tuple was already
            # compiled elsewhere (fresh campaign systems rebuild the
            # same traces every run), attach it — that is a dict lookup,
            # not a compile.  Otherwise keep interpreting until the
            # trace earns a novel compile.
            cached = _PROGRAM_CACHE.get(
                (component_name, memory.base, memory.size, tuple(trace.ops))
            )
            if cached is None:
                trace._clean_runs = runs + 1
                return None
        program = compile_trace(trace, memory, component_name)
        trace._compiled = program
        if recorder is not None:
            recorder.emit(
                "fastpath_compile",
                component=component_name,
                label=trace.label,
                ops=program.n_ops,
            )
    value, cycles = program.run(regs.values, memory.words, memory._dirty)
    return TraceResult(value, False, cycles, 0)
