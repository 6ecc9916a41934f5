"""Exception hierarchy for the SuperGlue reproduction.

Four families of exceptions exist:

* Simulation-level errors (:class:`ReproError` subclasses that indicate a bug
  or misuse of the library itself).
* Simulated hardware/OS faults (:class:`SimulatedFault` subclasses).  These
  model the *fail-stop* faults of the paper's fault model (Section II-A): a
  transient fault corrupts state and is detected, stopping execution of the
  faulty component.
* Control-flow signals (:class:`BlockThread`), which are not errors at all but
  use the exception machinery to unwind a synchronous invocation when a
  thread must block inside a server component.
* Harness errors (:class:`HarnessError`): a campaign run raised something
  its outcome classification does not cover — a bug in the harness, never
  a run outcome.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-level errors."""


class ConfigurationError(ReproError):
    """A system was wired together inconsistently."""


class CapabilityError(ReproError):
    """A component invoked an interface it holds no capability for."""


class IDLError(ReproError):
    """Base class for IDL front-end errors."""


class IDLSyntaxError(IDLError):
    """The IDL source text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class IDLValidationError(IDLError):
    """The IDL parsed but describes an inconsistent model."""


class CompileError(ReproError):
    """The SuperGlue compiler could not generate stub code."""


class RecoveryError(ReproError):
    """Interface-driven recovery could not restore a consistent state."""


class HarnessError(Exception):
    """A campaign run raised an exception that is not a run outcome.

    Deliberately *not* a :class:`ReproError`: the campaign driver
    classifies those as not-recovered outcomes, and a harness bug must
    never be counted as one.  It names the campaign's spec fingerprint and
    the run seed, so the failing run can be replayed in one process.  The
    original exception travels as ``detail`` text: it may not pickle, and
    this error crosses process-pool boundaries.
    """

    def __init__(self, fingerprint: str, run_seed: int, detail: str):
        super().__init__(fingerprint, run_seed, detail)
        self.fingerprint = fingerprint
        self.run_seed = run_seed
        self.detail = detail

    def __str__(self) -> str:
        return (
            f"run {self.run_seed} of {self.fingerprint} raised {self.detail}"
        )


# ---------------------------------------------------------------------------
# Simulated faults (fail-stop model)
# ---------------------------------------------------------------------------

class SimulatedFault(Exception):
    """A detected fault inside a simulated component (fail-stop).

    Attributes:
        component: name of the component the fault was detected in.
        recoverable: whether the booter can micro-reboot and recover, or the
            whole system must be rebooted (e.g. the exception path itself was
            destroyed by a corrupted stack pointer).
    """

    kind = "fault"

    #: Filled in by the trace engines when the fault unwinds a trace
    #: execution: virtual cycles consumed up to (and including) the
    #: faulting micro-op, and that op's index.  ``None`` for faults
    #: raised outside trace execution — the caller then falls back to
    #: its conservative whole-trace estimate.
    cycles_consumed = None
    op_index = None

    def __init__(self, message: str, component: str = "?", recoverable: bool = True):
        super().__init__(message)
        self.component = component
        self.recoverable = recoverable


class SegmentationFault(SimulatedFault):
    """A load or store hit an address outside the component's memory."""

    kind = "segfault"


class AssertionFault(SimulatedFault):
    """A consistency assertion inside a component failed (corrupt state)."""

    kind = "assertion"


class CorruptionDetected(SimulatedFault):
    """A magic-word check found a corrupted record in component memory."""

    kind = "corruption"


class SystemHang(SimulatedFault):
    """A corrupted loop bound made the component spin past its cycle budget.

    Hangs are *latent* faults (C'MON terminology); the campaign classifies
    them as "not recovered (other reason)".
    """

    kind = "hang"

    def __init__(self, message: str, component: str = "?"):
        super().__init__(message, component, recoverable=False)


class SystemCrash(SimulatedFault):
    """The fault destroyed the exception/diversion path: whole-system crash.

    Models the paper's "Not recovered (segfault)" outcome where the machine
    exits with a segmentation fault instead of diverting to the booter.
    """

    kind = "crash"

    def __init__(self, message: str, component: str = "?"):
        super().__init__(message, component, recoverable=False)


class PropagatedFault(SimulatedFault):
    """A corrupted value escaped through the interface into a client.

    Models the paper's "Not recovered (propagated)" outcome.
    """

    kind = "propagated"

    def __init__(self, message: str, component: str = "?"):
        super().__init__(message, component, recoverable=False)


class InvalidDescriptor(ReproError):
    """Server-visible EINVAL: a descriptor id is unknown to the server.

    This is *not* a simulated hardware fault: it is the error return the
    server-side stub catches to drive G0 recovery of global descriptors.
    """

    def __init__(self, desc_id, component: str = "?"):
        super().__init__(f"unknown descriptor {desc_id!r} in {component}")
        self.desc_id = desc_id
        self.component = component


# ---------------------------------------------------------------------------
# Control-flow signals
# ---------------------------------------------------------------------------

class BlockThread(Exception):
    """Signal: the invoking thread must block inside the server.

    COMPOSITE invocations are synchronous (thread migration), so a blocking
    server call suspends the client thread too.  The kernel catches this
    signal, parks the thread, and later resumes the invocation when the
    server wakes it (via a wakeup interface function or a timer expiry).

    Attributes:
        component: name of the component the thread blocks in.
        token: opaque value identifying the wait reason (e.g. a lock id).
        timeout: optional virtual-time expiry (absolute cycles) after which
            the kernel wakes the thread spontaneously.
        on_wake: optional callable run (in server context) when the thread is
            woken; its return value becomes the invocation's return value.
    """

    def __init__(self, component: str, token, timeout=None, on_wake=None):
        super().__init__(f"thread blocks in {component} on {token!r}")
        self.component = component
        self.token = token
        self.timeout = timeout
        self.on_wake = on_wake
