"""Edge cases of the recovery machinery."""

import pytest

from repro.composite.thread import Invoke
from repro.errors import RecoveryError
from repro.system import build_system


@pytest.fixture
def system():
    return build_system(ft_mode="superglue")


@pytest.fixture
def thread(system):
    return system.kernel.create_thread(
        "t", prio=1, home="app0", body_factory=lambda s, t: iter(())
    )


class TestEventPendingAcrossFault:
    def test_pending_triggers_survive_reboot(self, system, thread):
        """A trigger that raced the fault is not lost (G1 for events)."""
        kernel = system.kernel
        stub = system.stub("app0", "event")
        evtid = stub.invoke(kernel, thread, "evt_split", ("app0", 0, 9))
        stub.invoke(kernel, thread, "evt_trigger", ("app0", evtid))
        stub.invoke(kernel, thread, "evt_trigger", ("app0", evtid))
        kernel.component("event").micro_reboot()
        # Both pending triggers must still be consumable without blocking.
        assert stub.invoke(kernel, thread, "evt_wait", ("app0", evtid)) == 0
        assert stub.invoke(kernel, thread, "evt_wait", ("app0", evtid)) == 0

    def test_event_free_after_reboot(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "event")
        evtid = stub.invoke(kernel, thread, "evt_split", ("app0", 0, 9))
        kernel.component("event").micro_reboot()
        assert stub.invoke(kernel, thread, "evt_free", ("app0", evtid)) == 0
        assert stub.table.lookup(evtid) is None


class TestClosedDescriptors:
    def test_closed_descriptor_not_recovered(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "lock")
        lid = stub.invoke(kernel, thread, "lock_alloc", ("app0",))
        stub.invoke(kernel, thread, "lock_free", ("app0", lid))
        kernel.component("lock").micro_reboot()
        # Recovery of the surviving set is empty.
        assert stub.recover_all(kernel, thread) == 0
        assert len(kernel.component("lock").locks) == 0

    def test_terminated_mid_epoch_then_other_recovers(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "lock")
        a = stub.invoke(kernel, thread, "lock_alloc", ("app0",))
        b = stub.invoke(kernel, thread, "lock_alloc", ("app0",))
        kernel.component("lock").micro_reboot()
        stub.invoke(kernel, thread, "lock_free", ("app0", a))
        assert stub.invoke(kernel, thread, "lock_take", ("app0", b)) == 0


class TestDeepParentChains:
    def test_three_level_alias_chain_recovers_root_first(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "mm")
        stub.invoke(kernel, thread, "mman_get_page", ("app0", 0x4000))
        stub.invoke(
            kernel, thread, "mman_alias_page", ("app0", 0x4000, "app0", 0x8000)
        )
        stub.invoke(
            kernel, thread, "mman_alias_page", ("app0", 0x8000, "app0", 0xC000)
        )
        kernel.component("mm").micro_reboot()
        # Touching the leaf forces root -> middle -> leaf recovery (D1).
        assert (
            stub.invoke(kernel, thread, "mman_release_page", ("app0", 0xC000))
            == 0
        )
        mm = kernel.component("mm")
        assert mm.has_mapping("app0", 0x4000)
        assert mm.has_mapping("app0", 0x8000)
        assert not mm.has_mapping("app0", 0xC000)
        # Tree wiring is intact after the partial recovery.
        assert mm.parent_of("app0", 0x8000) == ("app0", 0x4000)

    def test_deep_ramfs_path_chain(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "ramfs")
        d1 = stub.invoke(kernel, thread, "tsplit", ("app0", 1, "a"))
        d2 = stub.invoke(kernel, thread, "tsplit", ("app0", d1, "b"))
        fd = stub.invoke(kernel, thread, "tsplit", ("app0", d2, "c.txt"))
        stub.invoke(kernel, thread, "twrite", ("app0", fd, b"deep"))
        kernel.component("ramfs").micro_reboot()
        stub.invoke(kernel, thread, "tseek", ("app0", fd, 0))
        assert stub.invoke(kernel, thread, "tread", ("app0", fd, 4)) == b"deep"
        assert kernel.component("ramfs").path_of(
            stub.table.lookup(fd).sid
        ) == "/a/b/c.txt"


class TestMultipleClients:
    def test_two_clients_recover_independently(self, system):
        kernel = system.kernel
        t0 = kernel.create_thread(
            "t0", prio=1, home="app0", body_factory=lambda s, t: iter(())
        )
        t1 = kernel.create_thread(
            "t1", prio=1, home="app1", body_factory=lambda s, t: iter(())
        )
        stub0 = system.stub("app0", "lock")
        stub1 = system.stub("app1", "lock")
        lid0 = stub0.invoke(kernel, t0, "lock_alloc", ("app0",))
        lid1 = stub1.invoke(kernel, t1, "lock_alloc", ("app1",))
        kernel.component("lock").micro_reboot()
        assert stub0.invoke(kernel, t0, "lock_take", ("app0", lid0)) == 0
        assert stub1.invoke(kernel, t1, "lock_take", ("app1", lid1)) == 0
        lock = kernel.component("lock")
        assert lock.owner_of(stub0.table.lookup(lid0).sid) == t0.tid
        assert lock.owner_of(stub1.table.lookup(lid1).sid) == t1.tid


class TestWalkFailureModes:
    def test_unreachable_state_raises_recovery_error(self, system):
        compiled = system.compiled["lock"]
        with pytest.raises(RecoveryError):
            compiled.ir.sm.recovery_walk("no_such_state")

    def test_repeated_epoch_bumps_retranslate(self, system, thread):
        kernel = system.kernel
        stub = system.stub("app0", "lock")
        lid = stub.invoke(kernel, thread, "lock_alloc", ("app0",))
        stub.invoke(kernel, thread, "lock_alloc", ("app0",))  # occupy id 2
        for __ in range(3):
            kernel.component("lock").micro_reboot()
            assert stub.invoke(kernel, thread, "lock_take", ("app0", lid)) == 0
            assert (
                stub.invoke(kernel, thread, "lock_release", ("app0", lid)) == 0
            )
        entry = stub.table.lookup(lid)
        assert entry.recovered_epoch == 3


class TestBlockAfterRecovery:
    @pytest.mark.parametrize("ft_mode", ["superglue", "c3"])
    def test_wake_runs_completion_tracking_after_id_change(self, ft_mode):
        """A wait that blocks right after its descriptor was recovered
        with a new id (the alias went to storage through a nested
        invocation) still gets the stub's completion tracking on wake."""
        system = build_system(ft_mode=ft_mode)
        kernel = system.kernel

        def idle(system, thread):
            return
            yield

        setup = kernel.create_thread("setup", prio=1, home="app0",
                                     body_factory=idle)
        stub = system.stub("app0", "event")
        evtid = stub.invoke(kernel, setup, "evt_split", ("app0", 0, 9))
        kernel.component("event").micro_reboot()
        # Another client takes the rebooted server's first id, so the
        # replayed evt_split comes back with a different one.
        system.stub("app1", "event").invoke(
            kernel, setup, "evt_split", ("app1", 0, 9)
        )
        completed = []
        post_unblock = stub.post_unblock

        def spy(kernel, thread, fn, args, value):
            completed.append((thread.name, fn))
            return post_unblock(kernel, thread, fn, args, value)

        stub.post_unblock = spy
        woke = []

        def waiter(system, thread):
            woke.append((yield Invoke("event", "evt_wait", "app0", evtid)))

        def trigger(system, thread):
            yield Invoke("event", "evt_trigger", "app0", evtid)

        kernel.create_thread("waiter", prio=1, home="app0", body_factory=waiter)
        kernel.create_thread("trigger", prio=2, home="app0",
                             body_factory=trigger)
        kernel.run()
        sid = (stub.table.lookup(evtid).sid if ft_mode == "superglue"
               else stub.descs[evtid]["sid"])
        assert sid != evtid
        assert woke == [0]
        assert completed == [("waiter", "evt_wait")]
