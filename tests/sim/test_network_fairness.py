"""Property-style tests of max-min fairness and the component-local allocator.

Two families of invariants over randomized (fixed-seed) arrival and
departure sequences, with and without NIC speed changes mid-run:

1. Max-min fairness — on every link the granted rates sum to at most
   the link bandwidth, and every active flow is bottlenecked: some link
   on its route is saturated and carries no faster flow, so raising the
   flow would necessarily lower an equal-or-slower one.
2. Incremental equivalence — the network only ever water-fills the
   connected component a change touched.  After every rebalance each
   class's rate must equal, bit for bit, what water-filling over *all*
   classes gives (:func:`install_water_filling_check`), and a run so
   checked ends with the same records and makespan as a plain one.
"""

import random

import pytest

from repro.sim import Environment, MB, Network, NetworkConfig

_TOL = 1e-6  # rate feasibility slack, bytes/second


def install_water_filling_check(net: Network) -> list[int]:
    """Check every rebalance of ``net`` against full water-filling.

    Wraps ``net._rebalance``: after each component-local rebalance, the
    allocator is re-run over every active class, the rates it gives are
    compared with the live ones, and the live rates are put back.
    Returns a one-element counter of the rebalances checked.
    """
    rebalance = net._rebalance
    checked = [0]

    def checked_rebalance(changed):
        rebalance(changed)
        classes = list(net._classes.values())
        live = [fclass.rate for fclass in classes]
        net._allocate_over(list(classes))
        full = [fclass.rate for fclass in classes]
        for fclass, rate in zip(classes, live):
            fclass.rate = rate
        assert live == full, "component-local rates differ from full water-filling"
        checked[0] += 1

    net._rebalance = checked_rebalance
    return checked


def _build(seed: int, nodes: int = 10, flows: int = 60, brownouts: int = 0):
    """Deterministic random workload: staggered arrivals, mixed sizes.

    ``brownouts`` NIC speed changes land at random times during the
    arrivals, each re-sharing the flows in flight.
    """
    rng = random.Random(seed)
    env = Environment()
    net = Network(env, NetworkConfig())
    nics = [
        net.attach(f"n{i}", rng.choice([25, 50, 100, 200]) * MB)
        for i in range(nodes)
    ]
    plan = []
    for _ in range(flows):
        gap = rng.uniform(0.0, 0.02)
        src, dst = rng.sample(range(nodes), 2)
        if rng.random() < 0.4:  # storage-node hotspot
            dst = 0
        size = rng.uniform(0.5, 24.0) * MB
        plan.append((gap, src, dst, size))
    changes = sorted(
        (rng.uniform(0.0, 0.02 * flows), rng.randrange(nodes),
         rng.choice([10, 25, 50, 100]) * MB)
        for _ in range(brownouts)
    )

    def starter(env):
        for gap, src, dst, size in plan:
            yield env.timeout(gap)
            net.transfer(nics[src], nics[dst], size)

    def shaper(env):
        for at, node, bandwidth in changes:
            yield env.timeout(at - env.now)
            net.set_nic_bandwidth(nics[node], bandwidth)

    env.process(starter(env))
    env.process(shaper(env))
    return env, net


def _link_loads(net: Network) -> dict:
    loads: dict = {}
    for flow in net.active_flows:
        for link in flow.links:
            loads[link] = loads.get(link, 0.0) + flow.rate
    return loads


@pytest.mark.parametrize("seed", [1, 7, 23, 91])
@pytest.mark.parametrize("brownouts", [True, False])
class TestMaxMinProperties:
    def test_rates_never_exceed_link_bandwidth(self, seed, brownouts):
        env, net = _build(seed, brownouts=8 if brownouts else 0)
        for probe in (0.05, 0.2, 0.5, 1.0, 2.0):
            env.run(until=probe)
            for link, load in _link_loads(net).items():
                assert load <= link.bandwidth + _TOL, (
                    f"link {link.name} oversubscribed: {load} > {link.bandwidth}"
                )

    def test_every_flow_is_bottlenecked(self, seed, brownouts):
        """Max-min optimality: no flow can be raised without lowering an
        equal-or-slower flow.  Equivalently, each flow crosses a link
        that is saturated and on which it is among the fastest flows."""
        env, net = _build(seed, brownouts=8 if brownouts else 0)
        for probe in (0.1, 0.4, 0.8, 1.5):
            env.run(until=probe)
            loads = _link_loads(net)
            for flow in net.active_flows:
                rate = flow.rate
                if rate <= 0.0:
                    continue
                bottlenecked = False
                for link in flow.links:
                    saturated = loads[link] >= link.bandwidth - _TOL
                    fastest = all(
                        other.rate <= rate + _TOL
                        for other in net.active_flows
                        if link in other.links
                    )
                    if saturated and fastest:
                        bottlenecked = True
                        break
                assert bottlenecked, (
                    f"flow {flow.flow_id} at {rate} has headroom on all links"
                )


@pytest.mark.parametrize("seed", [1, 7, 23, 91, 137])
class TestIncrementalEquivalence:
    def test_records_and_makespan_bit_identical(self, seed):
        """A run checked against full water-filling at every rebalance
        ends with the records and makespan of a plain run, bit for bit."""
        env_checked, net_checked = _build(seed, nodes=24, flows=120)
        install_water_filling_check(net_checked)
        env_plain, net_plain = _build(seed, nodes=24, flows=120)
        env_checked.run()
        env_plain.run()
        assert env_checked.now == env_plain.now
        rec_checked = [
            (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind)
            for r in net_checked.records
        ]
        rec_plain = [
            (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind)
            for r in net_plain.records
        ]
        assert len(rec_plain) == 120
        assert rec_checked == rec_plain

    def test_mid_run_rates_bit_identical(self, seed):
        env, net = _build(seed, nodes=24, flows=120)
        checked = install_water_filling_check(net)
        env.run()
        # One rebalance per arrival at least, and every flow finished.
        assert checked[0] >= 120
        assert len(net.records) == 120

    def test_rates_match_across_bandwidth_changes(self, seed):
        env, net = _build(seed, nodes=24, flows=120, brownouts=12)
        checked = install_water_filling_check(net)
        env.run()
        assert checked[0] >= 120 + 12
        assert len(net.records) == 120


def test_aggregated_same_route_flows_share_one_class():
    """N same-route transfers collapse into one allocator class but keep
    per-flow accounting (each gets bandwidth/N)."""
    env = Environment()
    net = Network(env, NetworkConfig())
    a = net.attach("a", 100 * MB)
    b = net.attach("b", 100 * MB)
    for _ in range(10):
        net.transfer(a, b, 50 * MB)
    assert net.active_flow_count == 10
    # One route class: every flow runs at exactly bandwidth / 10.
    rates = {f.rate for f in net.active_flows}
    assert rates == {100 * MB / 10}
    env.run()
    assert len(net.records) == 10
    assert net.bytes_between("a", "b") == 10 * 50 * MB
