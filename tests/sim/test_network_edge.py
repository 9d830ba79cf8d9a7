"""Edge-case tests for the fluid network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.network import KB, MB, Network, NetworkConfig


def make_net(latency=0.0, threshold=0.0):
    env = Environment()
    net = Network(
        env, NetworkConfig(latency=latency, message_threshold=threshold)
    )
    return env, net


class TestBandwidthReconfiguration:
    def test_mid_flow_bandwidth_change_applies_on_next_event(self):
        """A reconfigured NIC affects flows that rebalance afterwards."""
        env, net = make_net()
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 10 * MB)
        first = net.transfer(a, b, 10 * MB)

        def upgrade(env, net):
            yield env.timeout(0.5)
            b.set_bandwidth(20 * MB)
            # A new flow forces a rebalance at the new capacity.
            yield net.transfer(a, b, 1 * MB)

        env.process(upgrade(env, net))
        env.run(until=first)
        # First half at 10 MB/s (0.5 s); then 11 MB of remaining work
        # total at 20 MB/s shared — strictly faster than 1.0 s total.
        assert env.now < 1.05

    def test_wondershaper_style_throttle(self):
        env, net = make_net()
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        b.set_bandwidth(25 * MB)
        done = net.transfer(a, b, 25 * MB)
        env.run(until=done)
        assert env.now == pytest.approx(1.0, rel=1e-6)


class TestRecordLimits:
    def test_record_limit_caps_ledger(self):
        env, net = make_net()
        net.config.record_limit = 5
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        for _ in range(10):
            env.run(until=net.transfer(a, b, 1 * MB))
        assert len(net.records) == 5
        # Counters keep going even when the ledger is full.
        assert net.total_bytes == pytest.approx(10 * MB)

    def test_records_dropped_counts_past_the_limit(self):
        env, net = make_net()
        net.config.record_limit = 2
        a = net.attach("a", 100 * MB)
        b = net.attach("b", 100 * MB)
        for count in range(1, 6):
            env.run(until=net.transfer(a, b, 1 * KB))
            assert net.records_dropped == max(0, count - 2)
        assert len(net.records) == 2


class TestManyFlows:
    def test_hundred_simultaneous_flows_complete(self):
        env, net = make_net()
        dst = net.attach("dst", 100 * MB)
        events = []
        for i in range(100):
            src = net.attach(f"s{i}", 100 * MB)
            events.append(net.transfer(src, dst, 1 * MB))
        env.run(until=env.all_of(events))
        assert env.now == pytest.approx(1.0, rel=1e-4)
        assert net.active_flow_count == 0

    def test_bidirectional_flows_use_both_directions(self):
        """a->b and b->a do not share a link (full duplex)."""
        env, net = make_net()
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        f1 = net.transfer(a, b, 10 * MB)
        f2 = net.transfer(b, a, 10 * MB)
        env.run(until=env.all_of([f1, f2]))
        assert env.now == pytest.approx(1.0, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(
            st.floats(min_value=0.1 * MB, max_value=20 * MB),
            min_size=2,
            max_size=8,
        ),
        stagger=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_staggered_arrivals_conserve_bytes(self, sizes, stagger):
        env, net = make_net()
        dst = net.attach("dst", 25 * MB)
        sources = [net.attach(f"s{i}", 100 * MB) for i in range(len(sizes))]

        def starter(env, net):
            events = []
            for src, size in zip(sources, sizes):
                events.append(net.transfer(src, dst, size))
                yield env.timeout(stagger)
            yield env.all_of(events)

        env.run(until=env.process(starter(env, net)))
        assert net.total_bytes == pytest.approx(sum(sizes), rel=1e-9)
        assert net.active_flow_count == 0


class TestMessagePath:
    def test_threshold_boundary(self):
        env = Environment()
        net = Network(env, NetworkConfig(message_threshold=64 * KB))
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        net.transfer(a, b, 64 * KB)  # at the threshold: message path
        assert net.active_flow_count == 0
        net.transfer(a, b, 64 * KB + 1)  # above: fluid path
        assert net.active_flow_count == 1

    def test_message_counter(self):
        env, net = make_net(latency=0.001)
        a = net.attach("a", 10 * MB)
        b = net.attach("b", 10 * MB)
        for _ in range(5):
            env.run(until=net.message(a, b))
        assert net.message_count == 5
