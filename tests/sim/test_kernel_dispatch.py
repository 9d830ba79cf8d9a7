"""Dispatch-path invariants of the kernel.

``run()`` inlines event dispatch (a ``_Resume`` calls its callback
directly, every other entry runs the ``Event._process_callbacks`` body
in the loop), while ``step()`` goes through ``_process_callbacks``; both
must realize the same dispatch order.  A process binds its wake-up
callback once and drops it when it ends, so a finished or failed
process is freed by reference counting alone.  Dispatched timeouts are
recycled only when the refcount proves nobody else holds them.
"""

import gc
import weakref

import pytest

from repro.sim.kernel import Environment, Interrupt, SimulationError


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def no_gc():
    """Run the test with the cyclic garbage collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def scenario(env, log):
    """Plain events, timeouts, _Resume hops and cancelled timers.

    Returns the driver process, which finishes last.
    """
    plain = env.event()

    def ticker(name, delays):
        for delay in delays:
            value = yield env.timeout(delay, value=delay)
            log.append((env.now, name, "tick", value))
        return name

    def waiter():
        value = yield plain
        log.append((env.now, "waiter", "plain", value))
        # Already processed: resumes through a _Resume hop.
        value = yield plain
        log.append((env.now, "waiter", "again", value))

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, "sleeper", "interrupt", interrupt.cause))
        yield env.timeout(0.5)
        log.append((env.now, "sleeper", "done", None))

    def driver(sleeping, joined):
        yield env.timeout(1.5)
        plain.succeed("P")
        sleeping.interrupt("stop")
        victim = env.timeout(3.0)
        victim.callbacks.append(
            lambda _: log.append((env.now, "victim", "fired", None))
        )
        victim.cancel()
        result = yield joined
        log.append((env.now, "driver", "joined", result))
        return "driver"

    bare = env.timeout(0.75, value="bare")
    bare.callbacks.append(
        lambda e: log.append((env.now, "bare", "fired", e.value))
    )
    first = env.process(ticker("t1", [1.0, 0.25, 2.0]))
    env.process(ticker("t2", [0.25, 0.25, 0.25]))
    env.process(waiter())
    sleeping = env.process(sleeper())
    drive = env.process(driver(sleeping, first))
    both = env.all_of([first, drive])
    both.callbacks.append(
        lambda e: log.append(
            (env.now, "all_of", "fired", sorted(e.value.values()))
        )
    )
    tail = env.timeout(500.0)
    tail.cancel()
    return drive


EXPECTED = [
    (0.25, "t2", "tick", 0.25),
    (0.5, "t2", "tick", 0.25),
    (0.75, "bare", "fired", "bare"),
    (0.75, "t2", "tick", 0.25),
    (1.0, "t1", "tick", 1.0),
    (1.25, "t1", "tick", 0.25),
    (1.5, "waiter", "plain", "P"),
    (1.5, "sleeper", "interrupt", "stop"),
    (1.5, "waiter", "again", "P"),
    (2.0, "sleeper", "done", None),
    (3.25, "t1", "tick", 2.0),
    (3.25, "driver", "joined", "t1"),
    (3.25, "all_of", "fired", ["driver", "t1"]),
]


def stepped(env, until=None):
    """Drive ``env`` with step() only, as run(until=event) would."""
    while env.queued_events and (until is None or not until.processed):
        env.step()


class TestDispatchMatchesStep:
    def test_run_to_drain(self, env):
        run_log, step_log = [], []
        scenario(env, run_log)
        env.run()
        reference = Environment()
        scenario(reference, step_log)
        stepped(reference)
        assert run_log == step_log == EXPECTED
        # The interrupted sleeper's timer still fires (with no waiter) at
        # t=100; the cancelled tail timer never advances the clock.
        assert env.now == reference.now == 100.0
        assert env._eid == reference._eid

    def test_run_until_event(self, env):
        run_log, step_log = [], []
        drive = scenario(env, run_log)
        assert env.run(until=drive) == "driver"
        reference = Environment()
        stepped(reference, until=scenario(reference, step_log))
        assert run_log == step_log
        assert env.now == reference.now

    def test_run_in_slices(self, env):
        run_log, step_log = [], []
        scenario(env, run_log)
        for deadline in (0.25, 0.5, 1.5, 1.5, 2.0, 10.0):
            env.run(until=deadline)
        reference = Environment()
        scenario(reference, step_log)
        stepped(reference)
        assert run_log == step_log


class TestInterrupt:
    def test_interrupted_waiter_is_detached_and_resumed_once(self, env):
        awaited = env.event()
        resumes = []

        def waiter():
            try:
                yield awaited
                resumes.append("value")
            except Interrupt as interrupt:
                resumes.append(("interrupt", interrupt.cause))
            yield env.timeout(1.0)
            resumes.append("after")

        proc = env.process(waiter())
        env.run(until=1.0)
        assert len(awaited.callbacks) == 1
        proc.interrupt("x")
        assert awaited.callbacks == []
        # The event the process no longer waits on fires in the same
        # timestep; only the interrupt reaches the process.
        awaited.succeed("late")
        env.run()
        assert resumes == [("interrupt", "x"), "after"]
        assert not proc.is_alive

    def test_second_interrupt_after_exit_is_dropped(self, env):
        resumes = []

        def waiter():
            try:
                yield env.timeout(5.0)
            except Interrupt:
                resumes.append(env.now)

        proc = env.process(waiter())
        env.run(until=1.0)
        proc.interrupt()
        env.run()
        assert resumes == [1.0]
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestProcessLifetime:
    def test_finished_process_freed_by_refcount(self, env, no_gc):
        def worker():
            yield env.timeout(1.0)
            yield env.timeout(1.0)
            return "done"

        generator = worker()
        alive = weakref.ref(generator)
        proc = env.process(generator)
        env.run()
        assert proc.value == "done"
        del proc, generator
        assert alive() is None

    def test_failed_process_freed_by_refcount(self, env, no_gc):
        class Boom(ValueError):
            pass

        def worker():
            yield env.timeout(1.0)
            raise Boom("x")

        generator = worker()
        alive = weakref.ref(generator)
        proc = env.process(generator)
        seen = []
        proc.callbacks.append(lambda e: seen.append(e.value))
        env.run()
        assert len(seen) == 1 and isinstance(seen[0], Boom)
        error = weakref.ref(seen.pop())
        del proc, generator
        assert alive() is None
        assert error() is None

    def test_interrupted_process_freed_by_refcount(self, env, no_gc):
        def worker():
            yield env.timeout(10.0)

        def interrupter(target):
            yield env.timeout(1.0)
            target.interrupt("stop")

        generator = worker()
        alive = weakref.ref(generator)
        proc = env.process(generator)
        env.process(interrupter(proc))
        env.run()
        assert not proc.is_alive
        del proc, generator
        assert alive() is None

    def test_failure_traceback_keeps_user_frames(self, env):
        def worker():
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(worker())
        with pytest.raises(SimulationError) as info:
            env.run()
        frames = []
        tb = info.value.__cause__.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert frames == ["worker"]


class TestTimeoutPooling:
    """_POOL_CAP recycling proves sole ownership before reusing a timer."""

    def test_referenced_timeout_never_recycled(self, env):
        held = env.timeout(1.0)  # the test keeps this reference
        env.run()
        assert not env._timeout_pool or env._timeout_pool[0] is not held
        # A later timeout must be a fresh object, not `held` reused.
        fresh = env.timeout(1.0)
        assert fresh is not held

    def test_unreferenced_timeouts_are_pooled_and_reused(self, env):
        for _ in range(10):
            env.timeout(0.5)
        env.run()
        assert len(env._timeout_pool) == 10
        before = list(env._timeout_pool)
        again = env.timeout(0.5)
        assert again is before[-1]  # LIFO reuse from the free-list

    def test_cancelled_unreferenced_timeouts_are_pooled(self, env):
        for _ in range(8):
            env.timeout(5.0).cancel()
        env.timeout(6.0)
        env.run()
        # Tombstones dropped at pop (or by compaction) still reach the
        # free-list.
        assert len(env._timeout_pool) == 9

    def test_held_cancelled_timeout_not_pooled(self, env):
        held = env.timeout(5.0)
        held.cancel()
        env.timeout(6.0)
        env.run()
        assert held not in env._timeout_pool
        assert held.processed and not held.cancelled


class _Proxy:
    """Not a generator, but forwards send/throw to one."""

    def __init__(self, generator):
        self._generator = generator
        self.__name__ = "proxied"

    def send(self, value):
        return self._generator.send(value)

    def throw(self, error):
        return self._generator.throw(error)


class TestProcessArguments:
    def test_duck_typed_generator_runs(self, env):
        log = []

        def worker():
            value = yield env.timeout(2.0, value="v")
            log.append((env.now, value))
            return "ok"

        proc = env.process(_Proxy(worker()))
        assert proc.name == "proxied"
        assert env.run(until=proc) == "ok"
        assert log == [(2.0, "v")]

    def test_object_without_send_rejected(self, env):
        with pytest.raises(SimulationError, match="not a generator"):
            env.process(iter([1, 2]))

    def test_yielding_non_event_raises(self, env):
        def bad():
            yield env.timeout(1.0)
            yield 5

        env.process(bad(), name="bad")
        with pytest.raises(SimulationError, match="not an Event"):
            env.run()
