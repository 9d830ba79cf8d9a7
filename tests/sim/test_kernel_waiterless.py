"""A process that exits with nobody waiting queues no completion event.

It is marked processed on the spot; anything that joins it later —
``yield``, a condition, ``run(until=...)`` — still receives its return
value in the same timestep.  A failing process keeps queueing its
failure, so an unwaited crash still fails ``run()``.
"""

import pytest

from repro.sim.kernel import Environment, SimulationError, StopProcess


@pytest.fixture
def env():
    return Environment()


def worker(env, value, delay=1.0):
    yield env.timeout(delay)
    return value


def exited(env, value="done"):
    """A process that has just exited at t=1 with no waiter."""
    proc = env.process(worker(env, value))
    env.run(until=1.0)
    assert not proc.is_alive
    return proc


class TestState:
    def test_exit_marks_processed_with_value(self, env):
        proc = exited(env, 42)
        assert proc.processed and proc.triggered
        assert proc.ok is True
        assert proc.value == 42

    def test_exit_queues_nothing(self, env):
        proc = env.process(worker(env, "x"))
        env.step()  # bootstrap
        env.step()  # the timeout: the generator returns
        assert not proc.is_alive and proc.processed
        assert env.queued_events == 0

    def test_waited_exit_still_queues_completion(self, env):
        proc = env.process(worker(env, "x"))
        proc.callbacks.append(lambda _event: None)
        env.step()
        env.step()
        assert not proc.processed and proc.triggered
        assert env.queued_events == 1

    def test_stop_process_and_escaped_interrupt_exit_waiterless(self, env):
        def stops(env):
            yield env.timeout(1.0)
            raise StopProcess("early")

        def sleeper(env):
            yield env.timeout(10.0)

        stopped = env.process(stops(env))
        interrupted = env.process(sleeper(env))

        def interrupter(env):
            yield env.timeout(1.0)
            interrupted.interrupt("stop")

        env.process(interrupter(env))
        env.run(until=2.0)
        assert stopped.processed and stopped.value == "early"
        assert interrupted.processed and interrupted.value is None


class TestLateJoin:
    def test_yield_gets_value_in_same_timestep(self, env):
        proc = env.process(worker(env, "v"))
        seen = []

        def joiner(env):
            yield env.timeout(1.0)  # scheduled after proc's own timeout
            assert proc.processed
            seen.append((env.now, (yield proc)))

        env.process(joiner(env))
        env.run()
        assert seen == [(1.0, "v")]

    def test_yield_after_later_timestep(self, env):
        proc = exited(env, "v")
        seen = []

        def joiner(env):
            seen.append((env.now, (yield proc)))

        env.process(joiner(env))
        env.run()
        assert seen == [(1.0, "v")]

    @pytest.mark.parametrize("condition", ["all_of", "any_of"])
    def test_condition_gets_value_in_same_timestep(self, env, condition):
        proc = exited(env, "v")
        seen = []

        def joiner(env):
            values = yield getattr(env, condition)([proc])
            seen.append((env.now, values[proc]))

        env.process(joiner(env))
        env.run()
        assert seen == [(1.0, "v")]

    def test_condition_over_mixed_children(self, env):
        proc = exited(env, "v")
        other = env.timeout(0.5, value="t")
        values = env.run(until=env.all_of([proc, other]))
        assert env.now == 1.5
        assert values == {proc: "v", other: "t"}

    def test_run_until_returns_value(self, env):
        proc = exited(env, "v")
        assert env.run(until=proc) == "v"
        assert env.now == 1.0


class TestFailure:
    def test_unwaited_crash_still_fails_run(self, env):
        def crashes(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        proc = env.process(crashes(env))
        with pytest.raises(SimulationError, match="crashed") as info:
            env.run()
        assert isinstance(info.value.__cause__, ValueError)
        # The failure took the queued path, not the waiterless one.
        assert proc.triggered and not proc.processed and proc.ok is False

    def test_unwaited_interrupt_cause_is_not_a_crash(self, env):
        def sleeper(env):
            yield env.timeout(10.0)

        proc = env.process(sleeper(env))
        env.run(until=1.0)
        proc.interrupt()
        env.run()
        assert proc.processed and proc.ok is True


def test_same_outcome_as_waited_processes():
    """Waiterless exits shift later eids but never the dispatch order."""

    def run(waited):
        env = Environment()
        log = []

        def child(env, index):
            yield env.timeout(0.5 * (index % 3))
            log.append(("child", index, env.now))
            return index

        def parent(env):
            for index in range(9):
                proc = env.process(child(env, index))
                if waited:
                    proc.callbacks.append(lambda _event: None)
                yield env.timeout(0.25)
                log.append(("parent", index, env.now))

        env.process(parent(env))
        env.run()
        return log, env.now

    assert run(waited=False) == run(waited=True)

