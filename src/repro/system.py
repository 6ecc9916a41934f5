"""System builder: assemble a full simulated COMPOSITE system.

Wires the kernel, booter, the six system services plus their protected
helpers (storage, cbuf), application client components, and — depending on
the fault-tolerance mode — the SuperGlue-generated stubs, the hand-written
C^3 stubs, or no stubs at all (the unprotected baseline).

This is the main entry point of the library::

    from repro.system import build_system
    system = build_system(ft_mode="superglue")
    system.kernel.create_thread(...)
    system.kernel.run()
"""

from __future__ import annotations

import os
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.composite.app import AppComponent
from repro.composite.booter import Booter
from repro.composite.cbuf import CbufManager
from repro.composite.kernel import Kernel
from repro.composite.services import (
    EventService,
    LockService,
    MemoryManagerService,
    RamFSService,
    SchedService,
    StorageService,
    TimerService,
)
from repro.core.compiler import CompiledInterface, SuperGlueCompiler
from repro.core.runtime.recovery import RecoveryManager
from repro.errors import ConfigurationError, ReproError
from repro.idl_specs import SERVICES, load_all

#: Default application (client) components hosting workload threads.
DEFAULT_APPS = ("app0", "app1", "app2")

_compiled_cache: Optional[Dict[str, CompiledInterface]] = None


def compile_all_interfaces(force: bool = False) -> Dict[str, CompiledInterface]:
    """Compile the six service IDLs once and cache the result."""
    global _compiled_cache
    if _compiled_cache is None or force:
        compiler = SuperGlueCompiler()
        _compiled_cache = {
            name: compiler.compile_source(source, name=name)
            for name, source in load_all().items()
        }
    return _compiled_cache


@dataclass
class System:
    """A fully wired simulated system."""

    kernel: Kernel
    booter: Booter
    ft_mode: str
    apps: List[str]
    recovery_manager: Optional[RecoveryManager] = None
    compiled: Dict[str, CompiledInterface] = field(default_factory=dict)
    client_stubs: Dict[tuple, object] = field(default_factory=dict)

    def service(self, name: str):
        return self.kernel.component(name)

    def stub(self, client: str, server: str):
        return self.client_stubs.get((client, server))

    def run(self, **kwargs):
        return self.kernel.run(**kwargs)


def _make_services():
    return [
        SchedService(),
        MemoryManagerService(),
        RamFSService(),
        LockService(),
        EventService(),
        TimerService(),
    ]


def build_system(
    ft_mode: str = "superglue",
    apps=DEFAULT_APPS,
    recovery_mode: str = "ondemand",
) -> System:
    """Build a system in one of three fault-tolerance modes.

    * ``"none"`` — no stubs, no recovery: a detected service fault crashes
      the system (the unprotected COMPOSITE baseline of Fig. 7).
    * ``"c3"`` — hand-written C^3 stubs (Section II-C baseline).
    * ``"superglue"`` — SuperGlue-compiled stubs (the contribution).
    """
    if ft_mode not in ("none", "c3", "superglue"):
        raise ConfigurationError(f"unknown ft_mode {ft_mode!r}")
    kernel = Kernel(ft_mode=ft_mode)
    for app in apps:
        kernel.register_component(AppComponent(app))
    for service in _make_services():
        kernel.register_component(service)
    kernel.register_component(StorageService())
    kernel.register_component(CbufManager())
    kernel.grant_all_caps()
    booter = Booter(kernel)

    system = System(
        kernel=kernel, booter=booter, ft_mode=ft_mode, apps=list(apps)
    )

    if ft_mode == "none":
        return system

    manager = RecoveryManager(kernel, mode=recovery_mode)
    system.recovery_manager = manager

    if ft_mode == "superglue":
        compiled = compile_all_interfaces()
        system.compiled = compiled
        for name in SERVICES:
            interface = compiled[name]
            manager.register_interface(interface.ir)
            server_stub = interface.make_server_stub(kernel.component(name))
            kernel.register_server_stub(name, server_stub)
            for app in apps:
                stub = interface.make_client_stub(app)
                kernel.register_stub(app, name, stub)
                system.client_stubs[(app, name)] = stub
    else:  # c3
        from repro.c3 import make_c3_stubs

        irs, client_factory, server_factory = make_c3_stubs()
        for name in SERVICES:
            manager.register_interface(irs[name])
            server_stub = server_factory(name, kernel.component(name), irs[name])
            if server_stub is not None:
                kernel.register_server_stub(name, server_stub)
            for app in apps:
                stub = client_factory(name, app, irs[name])
                kernel.register_stub(app, name, stub)
                system.client_stubs[(app, name)] = stub
    return system


# ---------------------------------------------------------------------------
# System pooling: boot once, dirty-restore per run
# ---------------------------------------------------------------------------

def pooling_enabled() -> bool:
    """Is system pooling on?  ``REPRO_SYSTEM_POOL=0`` disables it."""
    return os.environ.get("REPRO_SYSTEM_POOL", "1") != "0"


#: Attributes excluded from structural fingerprints.  Back-references
#: (kernel, component, booter, ...) would recurse; images are
#: fingerprinted separately via their CRC; the trace caches
#: (``_trace_cache``, ``_track_traces``) and compiled interface IRs are
#: deliberately *kept warm* across pooled runs — their keys capture every
#: trace-determining input, so reuse changes wall-clock only.
_FINGERPRINT_SKIP = frozenset(
    {
        "kernel",
        "image",
        "component",
        "booter",
        "recovery_manager",
        "recorder",
        "swifi",
        "clock",
        "run_queue",
        "interfaces",
        "ir",
        "_exports",
        "_trace_cache",
        "_track_traces",
        # Perf bookkeeping, not run-visible state: the pooled-restore
        # skip flag and the stub-method lookup memo.
        "_ran",
        "_stub_methods",
    }
)

_FINGERPRINT_MAX_DEPTH = 8


def _flatten(obj, path: str, out: Dict[str, object], depth: int = 0) -> None:
    """Flatten ``obj`` into ``out`` as deterministic path -> value pairs."""
    if depth > _FINGERPRINT_MAX_DEPTH:
        out[path] = f"<depth:{type(obj).__name__}>"
        return
    if obj is None or isinstance(obj, (bool, int, float, str)):
        out[path] = obj
    elif isinstance(obj, (bytes, bytearray)):
        out[path] = f"bytes:{len(obj)}:{zlib.crc32(bytes(obj)):08x}"
    elif callable(obj):
        out[path] = f"<fn:{getattr(obj, '__qualname__', repr(obj))}>"
    elif isinstance(obj, dict):
        out[f"{path}#len"] = len(obj)
        for key in sorted(obj, key=repr):
            _flatten(obj[key], f"{path}[{key!r}]", out, depth + 1)
    elif isinstance(obj, (list, tuple, deque)):
        out[f"{path}#len"] = len(obj)
        for index, item in enumerate(obj):
            _flatten(item, f"{path}[{index}]", out, depth + 1)
    elif isinstance(obj, (set, frozenset)):
        _flatten(sorted(obj, key=repr), path, out, depth)
    else:
        attrs: Dict[str, object] = {}
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
        attrs.update(getattr(obj, "__dict__", {}))
        if not attrs:
            out[path] = f"<{type(obj).__name__}>"
            return
        out[f"{path}#type"] = type(obj).__name__
        for name in sorted(attrs):
            if name in _FINGERPRINT_SKIP or name.startswith("_sealed"):
                continue
            _flatten(attrs[name], f"{path}.{name}", out, depth + 1)


def system_fingerprint(system: System) -> Dict[str, object]:
    """A structural fingerprint of everything a run can mutate.

    Used by the pool's debug mode to prove a restored system is
    indistinguishable from a fresh build: two systems with equal
    fingerprints have identical images (CRC + allocator position),
    kernel counters, component state, stub tracking tables, and
    recovery/booter logs.
    """
    out: Dict[str, object] = {}
    kernel = system.kernel
    out["ft_mode"] = kernel.ft_mode
    out["clock.now"] = kernel.clock.now
    out["next_tid"] = kernel._next_tid
    out["crashed"] = repr(kernel.crashed)
    out["threads#len"] = len(kernel.threads)
    out["components"] = ",".join(kernel.components)
    _flatten(dict(kernel.stats), "kernel.stats", out)
    for name, component in kernel.components.items():
        image = component.image
        out[f"{name}.image.crc32"] = zlib.crc32(image.words.tobytes())
        out[f"{name}.image.alloc_ptr"] = image._alloc_ptr
        out[f"{name}.image.taint"] = image.taint_count
        _flatten(component, name, out)
    for (client, server), stub in sorted(kernel.all_client_stubs().items()):
        _flatten(stub, f"stub[{client}->{server}]", out)
    for server, stub in sorted(kernel.all_server_stubs().items()):
        _flatten(stub, f"server_stub[{server}]", out)
    _flatten(system.booter.reboot_log, "booter.reboot_log", out)
    if system.recovery_manager is not None:
        _flatten(
            system.recovery_manager.recovery_samples,
            "recovery.samples", out,
        )
        _flatten(
            system.recovery_manager.reboot_events, "recovery.reboots", out
        )
    return out


class SystemSnapshot:
    """Seal a freshly built system; restore it to post-boot state cheaply.

    Sealing copies aside the state that ``reinit`` deliberately preserves
    (storage contents, cbufs, app handlers, fault observers); restoring
    resets every per-run structure — kernel clock/queues/threads/stats,
    component images (dirty pages only) and records, stub tracking
    tables, recovery samples, the booter log — leaving the restored
    system structurally identical to a fresh :func:`build_system`.

    ``prepare`` is an optional post-build hook (e.g. registering the web
    server's application components) applied before sealing; the debug
    diff applies the same hook to its fresh reference build so prepared
    systems stay verifiable.  It must be deterministic and idempotent
    per fresh system.
    """

    def __init__(
        self,
        system: System,
        prepare: Optional[Callable[[System], None]] = None,
    ):
        self.system = system
        self.prepare = prepare
        self.params: Tuple[str, tuple, str] = (
            system.ft_mode,
            tuple(system.apps),
            system.recovery_manager.mode
            if system.recovery_manager is not None
            else "ondemand",
        )
        self.restores = 0
        kernel = system.kernel
        kernel.pool_seal()
        for component in kernel.components.values():
            component.pool_seal()
        # Restore is the pooled campaign's per-run hot path: bind the
        # restorable set once at seal time instead of re-enumerating
        # (and hasattr-probing) components and stubs on every run.
        restorables = list(kernel.components.values())
        restorables += [
            stub
            for stub in kernel.all_client_stubs().values()
            if hasattr(stub, "pool_restore")
        ]
        restorables += [
            stub
            for stub in kernel.all_server_stubs().values()
            if hasattr(stub, "pool_restore")
        ]
        restorables.append(system.booter)
        if system.recovery_manager is not None:
            restorables.append(system.recovery_manager)
        # Components (and stubs) skip their restore when the previous run
        # never touched them.  Debug mode wants the opposite: exercise
        # the full restore path every run so the fingerprint diff checks
        # the durable sealed copies too, not just the touched subset.
        if os.environ.get("REPRO_POOL_DEBUG") == "1":
            self._pool_restores = tuple(
                getattr(r, "_pool_restore_impl", r.pool_restore)
                for r in restorables
            )
        else:
            self._pool_restores = tuple(r.pool_restore for r in restorables)

    def restore(self) -> System:
        system = self.system
        system.kernel.pool_restore()
        for pool_restore in self._pool_restores:
            pool_restore()
        self.restores += 1
        return system

    def diff_against_fresh(self) -> List[str]:
        """Structural differences between this system and a fresh build."""
        ft_mode, apps, recovery_mode = self.params
        fresh = build_system(ft_mode, apps=apps, recovery_mode=recovery_mode)
        if self.prepare is not None:
            self.prepare(fresh)
        pooled = system_fingerprint(self.system)
        reference = system_fingerprint(fresh)
        diffs = []
        for key in sorted(set(pooled) | set(reference)):
            mine = pooled.get(key, "<absent>")
            theirs = reference.get(key, "<absent>")
            if mine != theirs:
                diffs.append(f"{key}: pooled={mine!r} fresh={theirs!r}")
        return diffs


class SystemPool:
    """Per-process pool of sealed systems, keyed by build parameters.

    ``acquire`` builds (and seals) on first use, then dirty-restores on
    every subsequent call.  With ``REPRO_POOL_DEBUG=1`` each restore is
    verified against a fresh build via :func:`system_fingerprint` — any
    structural divergence raises.
    """

    def __init__(self):
        self._snapshots: Dict[tuple, SystemSnapshot] = {}
        self.stats = {"builds": 0, "restores": 0}

    def acquire(
        self,
        ft_mode: str = "superglue",
        apps=DEFAULT_APPS,
        recovery_mode: str = "ondemand",
        prepare: Optional[Callable[[System], None]] = None,
        instance: Optional[object] = None,
    ) -> System:
        """Acquire a sealed system, building on first use.

        ``instance`` distinguishes otherwise-identical systems that must
        coexist live in one process — e.g. the simulated nodes of a
        cluster cell each pass their node id, so each node owns a
        private snapshot instead of all nodes sharing (and clobbering)
        one pooled image.
        """
        key = (
            ft_mode,
            tuple(apps),
            recovery_mode,
            None
            if prepare is None
            else f"{prepare.__module__}.{prepare.__qualname__}",
            instance,
        )
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            system = build_system(
                ft_mode, apps=apps, recovery_mode=recovery_mode
            )
            if prepare is not None:
                prepare(system)
            self._snapshots[key] = SystemSnapshot(system, prepare=prepare)
            self.stats["builds"] += 1
            return system
        system = snapshot.restore()
        self.stats["restores"] += 1
        if os.environ.get("REPRO_POOL_DEBUG") == "1":
            diffs = snapshot.diff_against_fresh()
            if diffs:
                detail = "; ".join(diffs[:10])
                raise ReproError(
                    f"pooled system diverged from fresh build "
                    f"({len(diffs)} differences): {detail}"
                )
        return system

    def snapshot_for(
        self,
        ft_mode: str = "superglue",
        apps=DEFAULT_APPS,
        recovery_mode: str = "ondemand",
        prepare: Optional[Callable[[System], None]] = None,
        instance: Optional[object] = None,
    ) -> Optional[SystemSnapshot]:
        """The sealed snapshot for these parameters, if one exists.

        The cluster supervisor uses this to whole-node reboot: restoring
        a node's snapshot *is* the node reboot (dirty-page restore of
        every component image plus per-run structure resets).
        """
        key = (
            ft_mode,
            tuple(apps),
            recovery_mode,
            None
            if prepare is None
            else f"{prepare.__module__}.{prepare.__qualname__}",
            instance,
        )
        return self._snapshots.get(key)

    def clear(self) -> None:
        self._snapshots.clear()


#: Process-wide pool used by the SWIFI campaign driver and workers.
GLOBAL_POOL = SystemPool()
