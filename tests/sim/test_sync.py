"""Unit tests for Resource / Store / Level synchronization primitives."""

import gc

import pytest

from repro.sim.kernel import Environment, SimulationError
from repro.sim.sync import Level, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_grants_up_to_capacity(self, env):
        res = Resource(env, capacity=2)
        granted = []

        def worker(env, res, name):
            with res.request() as req:
                yield req
                granted.append((name, env.now))
                yield env.timeout(10.0)

        for name in ["a", "b", "c"]:
            env.process(worker(env, res, name))
        env.run(until=5.0)
        assert [g[0] for g in granted] == ["a", "b"]
        env.run()
        assert ("c", 10.0) in granted

    def test_release_is_idempotent(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        env.run()
        res.release(req)
        res.release(req)
        assert res.in_use == 0

    def test_fifo_ordering(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, res, name):
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(1.0)

        for name in "abcde":
            env.process(worker(env, res, name))
        env.run()
        assert order == list("abcde")

    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_oversized_request_rejected(self, env):
        res = Resource(env, capacity=2)
        with pytest.raises(SimulationError):
            res.request(3)

    def test_multi_slot_request(self, env):
        res = Resource(env, capacity=4)
        log = []

        def big(env, res):
            with res.request(3) as req:
                yield req
                log.append(("big", env.now))
                yield env.timeout(5.0)

        def small(env, res):
            yield env.timeout(0.1)
            with res.request(2) as req:
                yield req
                log.append(("small", env.now))

        env.process(big(env, res))
        env.process(small(env, res))
        env.run()
        assert log == [("big", 0.0), ("small", 5.0)]

    def test_context_manager_releases_on_interrupt(self, env):
        res = Resource(env, capacity=1)

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(100.0)

        def attacker(env, target):
            yield env.timeout(1.0)
            target.interrupt()

        p = env.process(holder(env, res))
        env.process(attacker(env, p))
        env.run()
        assert res.in_use == 0

    def test_queue_length(self, env):
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        env.run()
        assert res.in_use == 1
        assert res.queue_length == 2

    def test_grant_fires_with_no_value(self, env):
        res = Resource(env, capacity=1)
        first, second = res.request(), res.request()
        env.run()
        assert first.value is None
        res.release(first)
        env.run()
        assert second.value is None and res.holds(second)

    def test_holds_is_per_request(self, env):
        # A granted request dropped without release keeps its slot; once
        # it is freed its address may be reused, which must not make a
        # queued request look granted.
        res = Resource(env, capacity=1)
        res.request()
        env.run()
        gc.collect()
        queued = [res.request() for _ in range(50)]
        env.run()
        assert not any(res.holds(req) for req in queued)
        # Releasing a queued request only withdraws it.
        res.release(queued[0])
        assert res.in_use == 1
        assert res.queue_length == 49
        assert not queued[0].triggered

    def test_release_twice_grants_the_next_waiter_once(self, env):
        res = Resource(env, capacity=1)
        held, waiting, last = res.request(), res.request(), res.request()
        env.run()
        res.release(held)
        res.release(held)
        env.run()
        assert res.holds(waiting) and not res.holds(last)
        assert res.in_use == 1 and res.queue_length == 1
        assert not res.holds(held)


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)

        def producer(env, store):
            yield store.put("x")

        def consumer(env, store):
            item = yield store.get()
            return item

        env.process(producer(env, store))
        c = env.process(consumer(env, store))
        assert env.run(until=c) == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        result = []

        def consumer(env, store):
            item = yield store.get()
            result.append((item, env.now))

        def producer(env, store):
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert result == [("late", 3.0)]

    def test_fifo_items(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        taken = []

        def consumer(env, store):
            for _ in range(5):
                item = yield store.get()
                taken.append(item)

        env.process(consumer(env, store))
        env.run()
        assert taken == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        events = []

        def producer(env, store):
            yield store.put("a")
            events.append(("a-in", env.now))
            yield store.put("b")
            events.append(("b-in", env.now))

        def consumer(env, store):
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert events == [("a-in", 0.0), ("b-in", 5.0)]

    def test_len_and_items(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run()
        assert len(store) == 2
        assert store.items == ("a", "b")

    def test_capacity_validation(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestLevel:
    def test_initial_level(self, env):
        level = Level(env, capacity=100, initial=40)
        assert level.level == 40

    def test_get_blocks_until_put(self, env):
        level = Level(env, capacity=100)
        got = []

        def getter(env, level):
            yield level.get(30)
            got.append(env.now)

        def putter(env, level):
            yield env.timeout(2.0)
            level.put(50)

        env.process(getter(env, level))
        env.process(putter(env, level))
        env.run()
        assert got == [2.0]
        assert level.level == pytest.approx(20)

    def test_try_get(self, env):
        level = Level(env, capacity=10, initial=5)
        assert level.try_get(3)
        assert not level.try_get(3)
        assert level.level == pytest.approx(2)

    def test_put_over_capacity_rejected(self, env):
        level = Level(env, capacity=10, initial=8)
        with pytest.raises(SimulationError):
            level.put(5)

    def test_get_over_capacity_rejected(self, env):
        level = Level(env, capacity=10)
        with pytest.raises(SimulationError):
            level.get(11)

    def test_negative_amounts_rejected(self, env):
        level = Level(env, capacity=10, initial=5)
        with pytest.raises(SimulationError):
            level.put(-1)
        with pytest.raises(SimulationError):
            level.get(-1)

    def test_initial_validation(self, env):
        with pytest.raises(SimulationError):
            Level(env, capacity=10, initial=11)
        with pytest.raises(SimulationError):
            Level(env, capacity=0)

    def test_fifo_getters(self, env):
        level = Level(env, capacity=100)
        order = []

        def getter(env, level, name, amount):
            yield level.get(amount)
            order.append(name)

        env.process(getter(env, level, "first", 60))
        env.process(getter(env, level, "second", 10))
        level.put(70)
        env.run()
        assert order == ["first", "second"]
