"""Runtime bases for SuperGlue-generated (and C^3 hand-written) stubs.

The generated code (see :mod:`repro.core.compiler.codegen`) subclasses
:class:`ClientStubRuntime` and :class:`ServerStubRuntime`.  The bases
provide the *mechanisms* — descriptor tables, tracking traces in client
memory, the recovery walk engine, storage interactions — while the
generated subclasses contain the per-interface *policy* (which arguments
to track, which branch of Fig. 4's template to take per function).

The client stub implements the redo loop of Fig. 4:

    redo:
        cli_if_desc_update(...)      # on-demand recovery (T1, D1, R0)
        ret = cli_if_invoke(...)     # the actual component invocation
        if fault: CSTUB_FAULT_UPDATE(); goto redo
        ret = cli_if_track(...)      # descriptor state tracking
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.composite.kernel import FAULT
from repro.composite.machine import EAX, EBX, ECX, ESI, Trace
from repro.composite.thread import Invoke
from repro.composite.services.common import TraceCache
from repro.core.compiler.ir import FunctionIR, InterfaceIR
from repro.core.runtime.tracking import DescriptorEntry, TrackingTable
from repro.errors import InvalidDescriptor, RecoveryError
from repro.observe import scalar as _scalar

#: Magic word guarding client-side tracking records.
TRACK_MAGIC = 0x7AC4E001

#: Meta key under which sticky-function callers are remembered, so replay
#: can impersonate the original principal (e.g. a lock's owner).
OWNER_KEY = "_owner"

#: Cycle cost of the CSTUB_FAULT_UPDATE epoch resynchronisation.
FAULT_UPDATE_CYCLES = 150

#: Iterations of the tracking-structure marshalling loop per tracked
#: invocation (calibrated so infrastructure overhead lands in the paper's
#: measured ~10-12% band for the web-server workload).
TRACK_MARSHAL_ITERS = 117


class TidProxy:
    """A thread façade with an overridden tid, for recovery impersonation.

    Recovery replays interface functions whose semantics bind the calling
    thread (e.g. ``lock_take`` records the caller as owner).  The walk runs
    at the *recovering* thread's priority and cost, but the replayed call
    must act for the descriptor's original principal; the proxy forwards
    everything to the real thread except ``tid``.
    """

    __slots__ = ("_thread", "_tid")

    def __init__(self, thread, tid: int):
        object.__setattr__(self, "_thread", thread)
        object.__setattr__(self, "_tid", tid)

    @property
    def tid(self):
        return self._tid

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_thread"), name)

    def __setattr__(self, name, value):
        setattr(object.__getattribute__(self, "_thread"), name, value)


class ClientStub:
    """The kernel-facing core both client stub flavours share.

    The kernel hands every invocation a (client, server) stub interposes
    on to :meth:`invoke`, which routes it to the flavour's per-function
    method — ``stub_<fn>`` in generated stubs, ``c3_<fn>`` in the
    hand-written C^3 ones — or passes it straight through.  Subclasses
    provide ``fault_update`` (CSTUB_FAULT_UPDATE) and ``post_unblock``.
    """

    #: Set by each concrete (generated or hand-written) stub.
    SERVICE: str = ""
    #: Prefix naming the per-function interposition methods.
    METHOD_PREFIX = "stub_"

    def __init__(self, client: str, server: str):
        self.client = client
        self.server = server
        self.seen_epoch = 0
        #: statistics: (tracking invocations, recovery walks, walk cycles)
        self.stats = {
            "tracked_ops": 0,
            "recoveries": 0,
            "recovery_cycles": 0,
            "fault_updates": 0,
            "redos": 0,
        }
        #: Memo of per-function method lookups (None for pass-through
        #: functions); invoke() is the hottest stub entry point and the
        #: getattr + string concat per call shows up in campaign profiles.
        self._stub_methods: Dict[str, Optional[Callable]] = {}

    def invoke(self, kernel, thread, fn: str, args: Tuple):
        # SWIFI's IDL-boundary fuzz class interposes here, on either stub
        # flavour: the stub (and the server behind it) sees the corrupted
        # arguments exactly as if the client had passed them.
        swifi = kernel.swifi
        if swifi is not None:
            args = swifi.filter_idl_args(self.server, fn, args)
        try:
            method = self._stub_methods[fn]
        except KeyError:
            method = getattr(self, self.METHOD_PREFIX + fn, None)
            self._stub_methods[fn] = method
        if method is None:
            # Functions outside the interface pass through untracked.
            result = kernel.raw_invoke(thread, self.server, fn, args)
            if result is FAULT:
                self.fault_update(kernel, thread)
                return self.invoke(kernel, thread, fn, args)
        else:
            result = method(kernel, thread, *args)
        if swifi is not None:
            result = swifi.filter_idl_ret(self.server, fn, result)
        return result

    def epoch(self, kernel) -> int:
        return kernel.component(self.server).reboot_epoch

    def impersonate(self, thread, tid: int):
        """Replay helper: act for the descriptor's original principal."""
        return TidProxy(thread, tid) if tid != thread.tid else thread

    def replay(self, kernel, thread, fn: str, args: Tuple):
        """One recovery replay invocation, retried once on a re-fault."""
        result = kernel.raw_invoke(thread, self.server, fn, args)
        if result is FAULT:
            # A second fault during recovery: resynchronise and retry once.
            self.fault_update(kernel, thread)
            result = kernel.raw_invoke(thread, self.server, fn, args)
            if result is FAULT:
                raise RecoveryError(
                    f"repeated fault replaying {fn} on {self.server}"
                )
        return result


class ClientStubRuntime(ClientStub):
    """Base for per-(client, server) interface stubs on the client side."""

    def __init__(self, ir: InterfaceIR, client: str, server: str):
        super().__init__(client, server)
        self.ir = ir
        self.table = TrackingTable()
        #: Tracking-trace cache: the micro-ops of a tracking trace are a
        #: pure function of (label, record address, seen epoch, store
        #: count), and the steady state re-executes the same few shapes on
        #: every invocation.  Reusing the Trace object keeps op lists (and
        #: thus injection offsets) bit-identical while letting the fast
        #: path amortise its one-time compile.
        self._track_traces = TraceCache()

    def pool_pristine(self) -> bool:
        """Is every piece of per-run state still at its sealed value?

        The predicate behind :meth:`pool_restore`'s skip — a stub the
        run never drove needs no reset.  It leans on the invariant that
        pristine implies sealed state, which the ``REPRO_POOL_DEBUG``
        restored==fresh differential enforces.
        """
        return (
            self.seen_epoch == 0
            and not self.table._entries
            and not any(self.stats.values())
        )

    def pool_restore(self) -> None:
        """Reset per-run tracking state for a pooled system restore.

        ``_track_traces`` is deliberately kept: its keys capture every
        trace-determining input (label, record address, epoch, store
        count), and pooled runs replay allocations at identical
        addresses, so reuse changes wall-clock only — never op lists.
        A stub the previous run never drove is already reset — skip it.
        """
        if self.pool_pristine():
            return
        self.table = TrackingTable()
        self.seen_epoch = 0
        for key in self.stats:
            self.stats[key] = 0

    # ------------------------------------------------------------------
    # Pieces used by generated per-function methods
    # ------------------------------------------------------------------
    def fault_update(self, kernel, thread) -> None:
        """CSTUB_FAULT_UPDATE: resynchronise with the rebooted server."""
        self.stats["fault_updates"] += 1
        kernel.charge(thread, FAULT_UPDATE_CYCLES)
        self.seen_epoch = self.epoch(kernel)
        if kernel.recorder.enabled:
            kernel.recorder.emit(
                "fault_update", server=self.server, epoch=self.seen_epoch
            )

    def client_image(self, kernel):
        return kernel.component(self.client).image

    def ensure_track_record(self, kernel, entry: DescriptorEntry) -> int:
        """Allocate the in-image tracking record for a descriptor."""
        if entry.track_addr is None:
            image = self.client_image(kernel)
            addr = image.alloc_record(TRACK_MAGIC, 4)
            entry.track_addr = addr
        return entry.track_addr

    def track_trace(
        self, kernel, thread, entry: Optional[DescriptorEntry],
        stores: int = 2, label: str = "track",
    ) -> None:
        """Execute the descriptor-tracking micro-ops in *client* memory.

        This is the infrastructure overhead measured in Fig. 6(a): a magic
        check plus a handful of loads/stores updating the tracking record.
        """
        self.stats["tracked_ops"] += 1
        addr = (
            self.ensure_track_record(kernel, entry)
            if entry is not None else None
        )
        key = (label, addr, self.seen_epoch, stores)
        trace = self._track_traces.get(key)
        if trace is None:
            trace = Trace(label).prologue()
            if addr is not None:
                trace.li(EAX, addr)
                trace.chk(EAX, 0, TRACK_MAGIC)
                trace.ld(EBX, EAX, 1)
                for off in range(stores):
                    trace.li(ECX, (self.seen_epoch + off) & 0xFFFFFFFF)
                    trace.st(ECX, EAX, 1 + (off % 4))
            else:
                trace.li(EBX, self.seen_epoch)
            # Meta-data marshalling walk: serialising arguments/return
            # values into the tracking structure dominates the
            # per-invocation infrastructure overhead (Fig. 6a measures it
            # in microseconds).
            trace.li(ESI, TRACK_MARSHAL_ITERS)
            trace.loop(ESI, 3)
            trace.li(EAX, 0)
            trace.epilogue(EAX)
            self._track_traces.put(key, trace)
        client_component = kernel.component(self.client)
        client_component.execute(thread, trace)

    # ------------------------------------------------------------------
    # Descriptor bookkeeping (called from generated tracking code).  The
    # *policy* — which arguments and return values land in which meta
    # fields, when the state transitions, who the owner is — lives in the
    # generated code; these are the mechanisms it drives.
    # ------------------------------------------------------------------
    def new_entry(self, kernel, thread, sid, create_fn: str) -> DescriptorEntry:
        """Allocate and register a tracking entry for a fresh descriptor."""
        entry = DescriptorEntry(
            cdesc=sid, sid=sid, create_fn=create_fn, epoch=self.epoch(kernel)
        )
        # Replays of thread-bound functions impersonate the creator.
        entry.meta[OWNER_KEY] = thread.tid
        self.table.add(entry)
        return entry

    def link_parent_arg(self, entry: DescriptorEntry, parent_arg) -> None:
        """Record the parent link if the argument names a tracked entry."""
        parent_cdesc = self._parent_cdesc_from_arg(parent_arg)
        if parent_cdesc is not None:
            self.table.link_parent(entry.cdesc, parent_cdesc)

    def note_created(
        self, kernel, thread, fn_ir: FunctionIR, args: Tuple, sid,
    ) -> DescriptorEntry:
        entry = DescriptorEntry(
            cdesc=sid, sid=sid, create_fn=fn_ir.name, epoch=self.epoch(kernel)
        )
        # Remember the creating thread: replays of thread-bound functions
        # (creation, sticky) impersonate it via TidProxy.
        entry.meta[OWNER_KEY] = thread.tid
        for index, name in fn_ir.tracked:
            entry.meta[name] = args[index]
        if fn_ir.parent_index is not None:
            # Keep the raw parent argument too: replays of parentless (e.g.
            # root-relative) creations need the original value.
            entry.meta[fn_ir.param_names[fn_ir.parent_index]] = (
                args[fn_ir.parent_index]
            )
        if fn_ir.ret_track is not None:
            name, mode = fn_ir.ret_track
            if mode == "add":
                entry.meta[name] = entry.meta.get(name, 0) + sid
            else:
                entry.meta[name] = sid
        self.table.add(entry)
        if fn_ir.parent_index is not None:
            parent_cdesc = self._parent_cdesc_from_arg(args[fn_ir.parent_index])
            if parent_cdesc is not None:
                self.table.link_parent(entry.cdesc, parent_cdesc)
        self.track_trace(kernel, thread, entry, stores=3, label="track_create")
        return entry

    def _parent_cdesc_from_arg(self, parent_arg):
        """Map a parent argument value back to a tracked cdesc, if any."""
        if parent_arg in (0, None):
            return None
        if self.table.lookup(parent_arg) is not None:
            return parent_arg
        return None

    def note_terminated(self, kernel, thread, entry: DescriptorEntry) -> None:
        """Terminal tracking; D0 removes the whole tracked subtree."""
        if self.ir.model.close_children:
            for sub in self.table.subtree(entry.cdesc):
                sub.closed = True
                self.table.remove(sub.cdesc)
        else:
            entry.closed = True
            self.table.remove(entry.cdesc)
        self.track_trace(kernel, thread, None, label="track_terminate")

    def note_state(
        self, kernel, thread, fn_ir: FunctionIR, entry: DescriptorEntry,
        args: Tuple, ret,
    ):
        """Post-invocation tracking: state transition plus meta updates."""
        sm = self.ir.sm
        if sm.changes_state(fn_ir.name):
            entry.state = fn_ir.name
        if fn_ir.name in sm.sticky_fns:
            entry.meta[OWNER_KEY] = thread.tid
        for index, name in fn_ir.tracked:
            entry.meta[name] = args[index]
        if fn_ir.ret_track is not None and not isinstance(ret, (bytes, str)):
            name, mode = fn_ir.ret_track
            if mode == "add":
                entry.meta[name] = entry.meta.get(name, 0) + ret
            else:
                entry.meta[name] = ret
        elif fn_ir.ret_track is not None:
            name, mode = fn_ir.ret_track
            if mode == "add":
                entry.meta[name] = entry.meta.get(name, 0) + len(ret)
        self.track_trace(kernel, thread, entry, label="track_update")
        return ret

    # ------------------------------------------------------------------
    # Blocking support
    # ------------------------------------------------------------------
    def post_unblock(self, kernel, thread, fn: str, args: Tuple, value):
        """Called by the kernel when a blocking invocation completes.

        Generated stubs provide a per-function ``unblock_<fn>`` method
        containing the completion-tracking policy; unknown functions fall
        back to the IR-driven path.
        """
        method = getattr(self, f"unblock_{fn}", None)
        if method is not None:
            return method(kernel, thread, args, value)
        fn_ir = self.ir.functions.get(fn)
        if fn_ir is None or fn_ir.desc_index is None:
            return value
        entry = self._entry_for_desc_arg(args[fn_ir.desc_index])
        if entry is not None:
            return self.note_state(kernel, thread, fn_ir, entry, args, value)
        return value

    def _entry_for_desc_arg(self, cdesc) -> Optional[DescriptorEntry]:
        return self.table.lookup(cdesc)

    # ------------------------------------------------------------------
    # Recovery engine: R0 + T1 + D1 (+ restores), Section III-C/D
    # ------------------------------------------------------------------
    def recover_on_demand(self, kernel, thread, entry: DescriptorEntry) -> None:
        """Bring one descriptor up to date with the current server epoch."""
        epoch = self.epoch(kernel)
        if entry.recovered_epoch == epoch or entry.closed:
            return
        entry.recovered_epoch = epoch  # set first: replays must not recurse
        start = kernel.clock.now
        # D1: parents recover before children, root-first.
        if entry.parent_cdesc is not None:
            parent = self.table.lookup(entry.parent_cdesc)
            if parent is not None:
                self.recover_on_demand(kernel, thread, parent)
        walk = self.ir.sm.recovery_walk(entry.state, creation_fn=entry.create_fn)
        old_sid = entry.sid
        for fn_name in walk:
            self._replay(kernel, thread, fn_name, entry)
        for restore in self.ir.sm.restores:
            self._replay_restore(kernel, thread, restore, entry)
        if self.ir.model.desc_global and entry.sid != old_sid:
            self._record_alias(kernel, thread, old_sid, entry.sid)
        self.stats["recoveries"] += 1
        self.stats["recovery_cycles"] += kernel.clock.now - start
        if kernel.recorder.enabled:
            kernel.recorder.emit(
                "descriptor_recovery",
                server=self.server,
                cdesc=_scalar(entry.cdesc),
                sid=_scalar(entry.sid),
                cycles=kernel.clock.now - start,
            )
        manager = kernel.recovery_manager
        if manager is not None:
            manager.record_descriptor_recovery(
                self.server, kernel.clock.now - start
            )

    def recover_by_old_sid(self, kernel, thread, old_sid) -> Optional[object]:
        """G0/U0 entry point: the server stub upcalls the creator client.

        Finds the descriptor whose last-known server id is ``old_sid`` and
        recovers it; returns the new server id (or None if unknown).
        """
        for entry in self.table.entries_by_sid(old_sid):
            self.recover_on_demand(kernel, thread, entry)
            return entry.sid
        return None

    def _replay(self, kernel, thread, fn_name: str, entry: DescriptorEntry):
        fn_ir = self.ir.functions[fn_name]
        args = self._reconstruct_args(fn_ir, entry)
        if kernel.recorder.enabled:
            kernel.recorder.emit(
                "replay",
                server=self.server,
                fn=fn_name,
                sid=_scalar(entry.sid),
            )
            kernel.recorder.metrics.counter("replays").inc()
        principal = entry.meta.get(OWNER_KEY, thread.tid)
        result = self.replay(
            kernel, self.impersonate(thread, principal), fn_name, args
        )
        if fn_ir.is_creation:
            entry.sid = result
        return result

    def _replay_restore(self, kernel, thread, restore, entry) -> None:
        fn_ir = self.ir.functions[restore.fn]
        count = 1
        if restore.counter is not None:
            count = int(entry.meta.get(restore.counter, 0))
        for __ in range(count):
            self._replay(kernel, thread, restore.fn, entry)

    def _reconstruct_args(self, fn_ir: FunctionIR, entry: DescriptorEntry):
        """Rebuild an argument tuple for a replay from tracked meta-data."""
        args: List[object] = []
        tracked = dict((i, name) for i, name in fn_ir.tracked)
        for index, name in enumerate(fn_ir.param_names):
            if index == fn_ir.principal_index:
                args.append(self.client)
            elif index == fn_ir.parent_index:
                args.append(self._parent_sid(entry, fn_ir))
            elif index == fn_ir.desc_index:
                args.append(entry.sid)
            elif index in tracked:
                args.append(entry.meta.get(tracked[index], 0))
            else:
                args.append(entry.meta.get(name, 0))
        return tuple(args)

    def _parent_sid(self, entry: DescriptorEntry, fn_ir: FunctionIR):
        if entry.parent_cdesc is None:
            # No tracked parent: replay the original argument value.
            name = fn_ir.param_names[fn_ir.parent_index]
            return entry.meta.get(name, 0)
        parent = self.table.lookup(entry.parent_cdesc)
        return parent.sid if parent is not None else entry.parent_cdesc

    def _record_alias(self, kernel, thread, old_sid, new_sid) -> None:
        kernel.invoke(
            thread,
            Invoke("storage", "store_put", f"alias:{self.server}", old_sid, new_sid),
        )

    # ------------------------------------------------------------------
    # Eager (T0-adjacent) recovery of *all* descriptors, used by the
    # eager-mode ablation and by blocking services at fault time.
    # ------------------------------------------------------------------
    def recover_all(self, kernel, thread) -> int:
        recovered = 0
        for cdesc in self.table.all_cdescs():
            entry = self.table.lookup(cdesc)
            if entry is None or entry.closed:
                continue
            before = entry.recovered_epoch
            self.recover_on_demand(kernel, thread, entry)
            if entry.recovered_epoch != before:
                recovered += 1
        return recovered


class ServerStubRuntime:
    """Base for server-side stubs (G0/G1-aware dispatch, Section III-C)."""

    SERVICE: str = ""

    def __init__(self, ir: InterfaceIR, component, storage: str = "storage"):
        self.ir = ir
        self.component = component
        self.storage_name = storage
        self.stats = {"einval_recoveries": 0, "replays": 0}

    def pool_pristine(self) -> bool:
        """See :meth:`ClientStubRuntime.pool_pristine` — the server
        stub's only mutable state is its recovery counters."""
        return not any(self.stats.values())

    def pool_restore(self) -> None:
        if not self.pool_pristine():
            stats = self.stats
            for key in stats:
                stats[key] = 0

    # The kernel calls this instead of component.dispatch.
    def dispatch(self, kernel, thread, fn: str, args: Tuple):
        fn_ir = self.ir.functions.get(fn)
        try:
            result = self.component.dispatch(fn, thread, args)
        except InvalidDescriptor as error:
            if fn_ir is None or not self.ir.model.desc_global:
                raise
            new_args = self._g0_recover(kernel, thread, fn_ir, args, error)
            if new_args is None:
                raise
            self.stats["einval_recoveries"] += 1
            result = self.component.dispatch(fn, thread, new_args)
        if fn_ir is not None and fn_ir.is_creation and self.ir.model.desc_global:
            self._record_creator(kernel, thread, fn_ir, args, result)
        return result

    # -- G0: global-descriptor recovery via storage + upcall (U0) ----------
    def _g0_recover(self, kernel, thread, fn_ir: FunctionIR, args, error):
        if fn_ir.desc_index is None:
            return None
        desc_id = args[fn_ir.desc_index]
        storage = kernel.component(self.storage_name)
        # 1. Another client may already have recovered it: follow aliases.
        resolved = storage.resolve_alias(thread, self.component.name, desc_id)
        if resolved != desc_id and self._known(resolved):
            return self._swap_desc(fn_ir, args, resolved)
        # 2. Ask storage who created it, and upcall that client's stub (U0).
        creator = storage.lookup_creator(thread, self.component.name, desc_id)
        if creator is None:
            return None
        client_stub = kernel.stub_for(creator, self.component.name)
        if client_stub is None:
            return None
        kernel.charge(thread, 300)  # upcall path into the creator component
        kernel.stats["upcalls"] += 1
        new_sid = client_stub.recover_by_old_sid(kernel, thread, desc_id)
        if new_sid is None:
            return None
        self.stats["replays"] += 1
        return self._swap_desc(fn_ir, args, new_sid)

    def _known(self, desc_id) -> bool:
        return self.component.has_record(desc_id)

    @staticmethod
    def _swap_desc(fn_ir: FunctionIR, args, new_desc):
        out = list(args)
        out[fn_ir.desc_index] = new_desc
        return tuple(out)

    def _record_creator(self, kernel, thread, fn_ir: FunctionIR, args, new_sid):
        storage = kernel.component(self.storage_name)
        if fn_ir.principal_index is not None:
            creator = args[fn_ir.principal_index]
        else:
            creator = getattr(thread, "home", None)
        if creator is not None and not isinstance(new_sid, (bytes, str)):
            storage.record_creator(thread, self.component.name, new_sid, creator)
