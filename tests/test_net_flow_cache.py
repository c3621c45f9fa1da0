"""The memoized max-min solver against a global water-filling oracle.

``FlowNetwork`` caches each allocation under its active-route multiset.
These tests re-derive every allocation the way the solver did before
it memoized anything — a global water-filling over the individual
flows — and require the network's rates to be equal, not close.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import ExperimentConfig, run_experiment
from repro.net import FlowNetwork, Topology, flow as flow_module
from repro.sim import Environment


def water_fill(flows):
    """flow_id -> rate: global per-flow water-filling (the oracle)."""
    remaining_cap = {}
    link_flows = {}
    for flow in flows:
        for link in flow.route.links:
            if link.link_id not in remaining_cap:
                remaining_cap[link.link_id] = link.bandwidth
                link_flows[link.link_id] = []
            link_flows[link.link_id].append(flow)
    rates = {}
    unfixed = {flow.flow_id for flow in flows}
    counts = {lid: len(members) for lid, members in link_flows.items()}
    while unfixed:
        bottleneck = min(
            (lid for lid, n in counts.items() if n > 0),
            key=lambda lid: (remaining_cap[lid] / counts[lid], lid))
        fair_share = remaining_cap[bottleneck] / counts[bottleneck]
        for flow in link_flows[bottleneck]:
            if flow.flow_id not in unfixed:
                continue
            rates[flow.flow_id] = (fair_share if fair_share > 0
                                   else flow_module._MIN_RATE)
            unfixed.discard(flow.flow_id)
            for link in flow.route.links:
                counts[link.link_id] -= 1
                remaining_cap[link.link_id] -= fair_share
                if remaining_cap[link.link_id] < 0:
                    remaining_cap[link.link_id] = 0.0
    return rates


@st.composite
def network_and_waves(draw):
    """A random line or tree, a few routes on it, and a batch of flows
    replayed in waves so the same route multisets recur."""
    nodes = draw(st.integers(2, 7))
    if draw(st.booleans()):
        parents = list(range(nodes - 1))                 # a line
    else:
        parents = [draw(st.integers(0, child - 1))       # a tree
                   for child in range(1, nodes)]
    bandwidths = [draw(st.sampled_from([1.0, 2.5, 3.0, 7.0, 10.0]))
                  for _ in parents]
    endpoints = st.tuples(st.integers(0, nodes - 1),
                          st.integers(0, nodes - 1)).filter(
                              lambda pair: pair[0] != pair[1])
    routes = draw(st.lists(endpoints, min_size=1, max_size=4))
    batch = draw(st.lists(
        st.tuples(st.sampled_from(routes),
                  st.sampled_from([5.0, 20.0, 60.0]),
                  st.sampled_from([0.0, 0.5, 3.0])),
        min_size=1, max_size=10))
    waves = draw(st.integers(2, 4))
    return parents, bandwidths, batch, waves


@given(network_and_waves())
@settings(max_examples=80, deadline=None)
def test_memoized_rates_equal_global_water_filling(data):
    parents, bandwidths, batch, waves = data
    topo = Topology()
    names = [topo.add_node(f"n{i}") for i in range(len(parents) + 1)]
    for child, (parent, bandwidth) in enumerate(zip(parents, bandwidths),
                                                start=1):
        topo.add_link(names[parent], names[child], bandwidth, 0.01)
    env = Environment()
    net = FlowNetwork(env, topo)

    mismatches = []
    original = net._recompute_rates

    def checked():
        original()
        flows = list(net._flows.values())
        expected = water_fill(flows)
        mismatches.extend((flow.flow_id, flow.rate, expected[flow.flow_id])
                          for flow in flows
                          if flow.rate != expected[flow.flow_id])

    net._recompute_rates = checked

    def start(env, src, dst, size, delay):
        if delay:
            yield env.timeout(delay)
        yield net.transfer(src, dst, size)

    def replay(env):
        for _ in range(waves):
            yield env.all_of([
                env.process(start(env, names[a], names[b], size, delay))
                for (a, b), size, delay in batch])

    env.process(replay(env))
    env.run()
    assert mismatches == []
    assert net.active_flow_count == 0
    # Every wave after the first opens with the multiset the first one
    # opened with, so the cache answers at least once per later wave.
    assert net.rate_cache_hits >= waves - 1
    assert net.rate_lookups > net.rate_cache_hits


def test_rate_cache_stays_within_its_bound(monkeypatch):
    """Cross-traffic makes the most distinct route multisets; a small
    bound forces evictions, and the run's result does not move."""
    bound = 64
    monkeypatch.setattr(flow_module, "RATE_CACHE_SIZE", bound)
    sizes = []
    original = FlowNetwork._recompute_rates

    def recording(self):
        original(self)
        sizes.append(len(self._rate_cache))

    monkeypatch.setattr(FlowNetwork, "_recompute_rates", recording)
    config = ExperimentConfig(scheduler="combined.2", num_tasks=300,
                              num_sites=10, capacity_files=600,
                              cross_traffic=True)
    result = run_experiment(config)
    assert max(sizes) == bound
    assert result.rate_lookups - result.rate_cache_hits > bound
    # The same run as the golden cross-traffic pin in test_sim_golden.
    assert (repr(result.makespan), result.file_transfers) \
        == ("11211.9114615501", 4127)


def test_rate_cache_is_exact_for_routes_in_any_order():
    """The same flows admitted in any order finish at the same times."""
    topo = Topology()
    for name in "abcd":
        topo.add_node(name)
    topo.add_link("a", "b", 10.0, 0.0)
    topo.add_link("b", "c", 3.0, 0.0)
    topo.add_link("b", "d", 7.0, 0.0)
    pairs = [("a", "c"), ("a", "d"), ("a", "d"), ("c", "d")]
    seen = []
    for order in (pairs, list(reversed(pairs)),
                  random.Random(3).sample(pairs, len(pairs))):
        env = Environment()
        net = FlowNetwork(env, topo)
        events = [net.transfer(src, dst, 30.0) for src, dst in order]
        env.run()
        seen.append(sorted((e.value.src, e.value.dst, e.value.finished_at)
                           for e in events))
    assert seen[0] == seen[1] == seen[2]
