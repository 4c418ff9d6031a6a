"""Tests for the runtime lock-order sanitizer (repro.serving.rwlock).

The detection tests build deliberately mis-ordered acquisition
fixtures and assert the sanitizer raises :class:`LockOrderError`
*instead of deadlocking*; the integration test runs a real
ServingRuntime workload with the sanitizer globally enabled and
requires zero violations (the static rules and the dynamic witness
must agree that the shipped discipline is clean).
"""

import random
import threading

import pytest

from repro.graph import EdgeUpdate
from repro.obs import MetricsRegistry
from repro.ppr import Fora, PPRParams
from repro.queueing.workload import QUERY, UPDATE, Request
from repro.serving import OK, ServingRuntime
from repro.serving import rwlock as rwlock_mod
from repro.serving.rwlock import (
    LockOrderError,
    LockSanitizer,
    RWLock,
    TrackedLock,
    default_sanitizer,
    sanitizer_enabled,
    wrap_mutex,
)

from tests.serving.test_stress import exact_query_fn, make_graph


@pytest.fixture
def san():
    return LockSanitizer(metrics=MetricsRegistry())


class TestEnvGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(rwlock_mod.SANITIZER_ENV, raising=False)
        assert not sanitizer_enabled()
        assert default_sanitizer() is None
        lock = threading.Lock()
        assert wrap_mutex(lock, "m") is lock  # zero overhead when off
        assert RWLock(name="x")._sanitizer is None

    @pytest.mark.parametrize("value", ["0", "false", "off", ""])
    def test_falsy_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(rwlock_mod.SANITIZER_ENV, value)
        assert not sanitizer_enabled()

    def test_enabled_wraps(self, monkeypatch, san):
        monkeypatch.setenv(rwlock_mod.SANITIZER_ENV, "1")
        assert sanitizer_enabled()
        wrapped = wrap_mutex(threading.Lock(), "m", san)
        assert isinstance(wrapped, TrackedLock)


class TestSelfDeadlocks:
    def test_read_write_upgrade_raises(self, san):
        lock = RWLock(name="A", sanitizer=san)
        with lock.read_locked():
            with pytest.raises(LockOrderError, match="upgrade"):
                lock.acquire_write(timeout=0.1)

    def test_recursive_read_raises(self, san):
        lock = RWLock(name="A", sanitizer=san)
        with lock.read_locked():
            with pytest.raises(LockOrderError, match="recursive read"):
                lock.acquire_read(timeout=0.1)

    def test_recursive_mutex_raises(self, san):
        mutex = wrap_mutex(threading.Lock(), "M", san)
        with mutex:
            with pytest.raises(LockOrderError, match="re-acquiring"):
                mutex.acquire(blocking=False)

    def test_sequential_reuse_is_fine(self, san):
        lock = RWLock(name="A", sanitizer=san)
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass
        assert san.violations == []


class TestOrderCycles:
    def test_single_thread_order_reversal_raises(self, san):
        a = RWLock(name="A", sanitizer=san)
        b = RWLock(name="B", sanitizer=san)
        with a.read_locked():
            with b.read_locked():
                pass
        with b.read_locked():
            with pytest.raises(LockOrderError, match="cycle"):
                a.acquire_read(timeout=0.1)

    def test_mutex_vs_rwlock_cycle_raises(self, san):
        rw = RWLock(name="serving.rwlock", sanitizer=san)
        mutex = wrap_mutex(threading.Lock(), "serving.seed", san)
        with rw.write_locked():
            with mutex:
                pass
        with mutex:
            with pytest.raises(LockOrderError, match="cycle"):
                rw.acquire_read(timeout=0.1)

    def test_consistent_order_never_raises(self, san):
        rw = RWLock(name="serving.rwlock", sanitizer=san)
        seed = wrap_mutex(threading.Lock(), "serving.seed", san)
        records = wrap_mutex(threading.Lock(), "serving.records", san)
        for _ in range(5):
            with rw.write_locked():
                with seed:
                    pass
                with records:
                    pass
            with rw.read_locked():
                with records:
                    pass
        assert san.violations == []

    def test_held_reports_current_stack(self, san):
        a = RWLock(name="A", sanitizer=san)
        with a.write_locked():
            assert san.held() == (("A", "write"),)
        assert san.held() == ()


@pytest.mark.stress
class TestDeliberateDeadlockFixture:
    def test_two_thread_ab_ba_detected_not_deadlocked(self, san):
        """The classic AB-BA deadlock, deterministically sequenced.

        Thread 1 holds A and blocks on B; thread 2 holds B and then
        requests A.  Without the sanitizer this hangs; with it, thread
        2 gets LockOrderError *before blocking* (the A->B edge was
        recorded when thread 1 attempted B), thread 2 releases B, and
        thread 1 proceeds — the suite finishes instead of timing out.
        """
        a = RWLock(name="A", sanitizer=san)
        b = RWLock(name="B", sanitizer=san)
        t1_has_a = threading.Event()
        t2_has_b = threading.Event()
        outcome: dict[str, object] = {}

        def thread_one():
            with a.write_locked():
                t1_has_a.set()
                t2_has_b.wait(5.0)
                # blocks until thread 2 aborts; records the A->B edge
                # in before_acquire, *then* parks
                with b.write_locked():
                    outcome["t1_got_b"] = True

        def thread_two():
            with b.write_locked():
                t2_has_b.set()
                t1_has_a.wait(5.0)
                # give thread 1 time to attempt B (edge A->B recorded
                # before it blocks on the held lock)
                for _ in range(100):
                    if ("A", "B") in [
                        (s, d)
                        for s, dsts in san._graph.items()
                        for d in dsts
                    ]:
                        break
                    threading.Event().wait(0.01)
                try:
                    a.acquire_write(timeout=5.0)
                    outcome["t2_got_a"] = True
                except LockOrderError as exc:
                    outcome["t2_error"] = str(exc)

        threads = [
            threading.Thread(target=thread_one, name="t1"),
            threading.Thread(target=thread_two, name="t2"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads), "deadlocked!"
        assert "t2_error" in outcome, outcome
        assert "cycle" in str(outcome["t2_error"])
        assert outcome.get("t1_got_b") is True  # t1 recovered
        assert len(san.violations) == 1


@pytest.mark.stress
class TestRuntimeIntegration:
    @pytest.fixture
    def global_sanitizer(self, monkeypatch):
        """Enable the process-wide sanitizer with a fresh instance."""
        monkeypatch.setenv(rwlock_mod.SANITIZER_ENV, "1")
        fresh = LockSanitizer(metrics=MetricsRegistry())
        monkeypatch.setattr(rwlock_mod, "_default", fresh)
        return fresh

    def test_runtime_workload_zero_false_positives(self, global_sanitizer):
        """A full query/update workload under the sanitizer is clean.

        This is the dynamic witness for the static self-check: the
        runtime's rwlock -> {seed, records, cache} order and its
        no-upgrade discipline hold under real interleavings.
        """
        rng = random.Random(0xC0FFEE)
        graph = make_graph(rng)
        metrics = MetricsRegistry()
        records = []
        runtime = ServingRuntime(
            Fora(graph, PPRParams(walk_cap=100)),
            workers=3,
            epsilon_r=0.05,
            query_fn=exact_query_fn,
            metrics=metrics,
            drain_idle=True,
            idle_tick_s=0.002,
            on_complete=records.append,
        )
        # the runtime's locks must actually be tracked
        assert runtime._rwlock._sanitizer is global_sanitizer
        assert isinstance(runtime._seed_lock, TrackedLock)
        nodes = list(graph.nodes())
        runtime.start()
        try:
            for i in range(120):
                if i % 4 == 0:
                    u, v = rng.sample(nodes, 2)
                    runtime.submit(
                        Request(0.0, UPDATE, update=EdgeUpdate(u, v))
                    )
                else:
                    runtime.submit(
                        Request(0.0, QUERY, source=rng.choice(nodes))
                    )
            runtime.drain()
        finally:
            runtime.stop()
        assert global_sanitizer.violations == []
        served = [r for r in records if r.status == OK]
        assert len(served) >= 100  # the workload really ran
        acquired = global_sanitizer._metrics.counter("locks.acquired")
        assert acquired.value > 0  # and the sanitizer really watched
