"""Flow-level network simulation with progressive max-min fair sharing.

This is the SimGrid-style network model the paper's simulations rely on:
a transfer is a *flow* along a fixed route; all flows crossing a link
share its bandwidth max-min fairly; whenever a flow starts or finishes,
the rates are re-derived and the next completion is re-scheduled.

The max-min allocation is memoized on the active-route multiset.  Link
bandwidths are fixed, flows on one route cross the same links and so
always get one rate, and within a water-filling step every subtraction
from a link is the same fair share, so the allocation is a pure
function of "how many active flows use each route".  The network keeps
that multiset up to date on admit and finish, and water-fills only when
it meets a multiset it has not seen before.  Every file transfer of the
paper's grid crosses the file server's uplink, so the flows nearly
always form one connected component and a per-component update would
save nothing; the multiset, though, repeats: a Coadd figure run sees
about 500 distinct ones across 30000 updates.  SimGrid's lazy max-min
updates rest on the same observation: skip work already done.

The model captures the two effects the paper leans on:

* a site's workers and data server share one uplink, so concurrent
  transfers into a site contend with each other, and
* transfer time scales with bytes over the bottleneck link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..sim.engine import Environment
from ..sim.events import Event
from .topology import Route, Topology

#: Remaining-bytes threshold under which a flow counts as finished.
#: Guards against float drift accumulating over rate recomputations.
_EPSILON_BYTES = 1e-6

#: Defensive floor on flow rates.  Float drift in the water-filling loop
#: could otherwise assign a flow exactly 0 bytes/s and stall the clock.
_MIN_RATE = 1e-9

#: Most route multisets whose allocation one network remembers; the
#: oldest entry is dropped beyond it.  A 1000-task Coadd run stays under
#: 600 entries, and about 5400 with cross-traffic on.
RATE_CACHE_SIZE = 8192

#: An active-route multiset: sorted ``(route id, active flows)`` pairs.
RouteMultiset = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TransferStats:
    """Completion record for one finished flow."""

    src: str
    dst: str
    size: float
    requested_at: float
    started_at: float   # admission time (request + route latency)
    finished_at: float

    @property
    def duration(self) -> float:
        """Wall time from request to completion (includes latency)."""
        return self.finished_at - self.requested_at


class _Flow:
    """Internal mutable state of one active transfer."""

    __slots__ = ("flow_id", "route", "route_id", "size", "remaining",
                 "rate", "done", "requested_at", "started_at")

    def __init__(self, flow_id: int, route: Route, route_id: int,
                 size: float, done: Event, requested_at: float,
                 started_at: float):
        self.flow_id = flow_id
        self.route = route
        self.route_id = route_id
        self.size = size
        self.remaining = size
        self.rate = 0.0
        self.done = done
        self.requested_at = requested_at
        self.started_at = started_at


class FlowNetwork:
    """Executes transfers over a :class:`Topology` with max-min sharing.

    Parameters
    ----------
    env:
        Simulation environment.
    topology:
        The network graph; routes are resolved through it.
    """

    def __init__(self, env: Environment, topology: Topology):
        self.env = env
        self.topology = topology
        self._flows: Dict[int, _Flow] = {}
        self._next_id = 0
        self._last_update = env.now
        self._timer_version = 0
        #: Link-id tuple -> route id, and back: routes are interned so
        #: the multiset key is a tuple of small ints.
        self._route_ids: Dict[Tuple[int, ...], int] = {}
        self._route_links: List[Tuple[int, ...]] = []
        self._bandwidth: Dict[int, float] = {}
        #: route id -> number of active flows on it (no zero entries).
        self._active_routes: Dict[int, int] = {}
        #: active-route multiset -> route id -> rate of each flow on it.
        self._rate_cache: Dict[RouteMultiset, Dict[int, float]] = {}
        #: Rate computations, and how many the cache answered.
        self.rate_lookups = 0
        self.rate_cache_hits = 0
        #: Cumulative counters for analysis.
        self.completed_transfers = 0
        self.bytes_transferred = 0.0

    # -- public API ----------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def transfer(self, src: str, dst: str, size: float) -> Event:
        """Start moving ``size`` bytes from ``src`` to ``dst``.

        Returns an event whose value is a :class:`TransferStats` once the
        last byte arrives.  Zero-byte and same-node transfers complete
        after the route latency alone.
        """
        if size < 0:
            raise ValueError(f"negative transfer size {size}")
        route = self.topology.route(src, dst)
        done = Event(self.env)
        requested_at = self.env.now
        latency = route.latency

        if size == 0 or not route.links:
            stats = TransferStats(src, dst, size, requested_at,
                                  requested_at + latency,
                                  requested_at + latency)
            self.completed_transfers += 1
            self.bytes_transferred += size
            done.succeed(stats, delay=latency)
            return done

        admit = self.env.timeout(latency)
        admit.add_callback(
            lambda _e: self._admit(route, size, done, requested_at))
        return done

    # -- internals -------------------------------------------------------
    def _intern(self, route: Route) -> int:
        links = tuple(link.link_id for link in route.links)
        route_id = self._route_ids.get(links)
        if route_id is None:
            route_id = self._route_ids[links] = len(self._route_links)
            self._route_links.append(links)
            for link in route.links:
                self._bandwidth[link.link_id] = link.bandwidth
        return route_id

    def _admit(self, route: Route, size: float, done: Event,
               requested_at: float) -> None:
        route_id = self._intern(route)
        flow = _Flow(self._next_id, route, route_id, size, done,
                     requested_at, self.env.now)
        self._next_id += 1
        self._flows[flow.flow_id] = flow
        active = self._active_routes
        active[route_id] = active.get(route_id, 0) + 1
        self._update()

    def _update(self) -> None:
        """Advance all flows to now, complete finished ones, reschedule."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now

        # A flow is done when its bytes are (numerically) gone, or when
        # the time left is below the clock's float resolution at `now` —
        # otherwise `now + dt == now` and the completion timer would
        # fire forever without advancing the clock.
        eps_t = max(1e-9, abs(now) * 1e-12)
        finished = []
        for flow in self._flows.values():
            rate = flow.rate
            remaining = flow.remaining
            if elapsed > 0:
                remaining -= rate * elapsed
                if remaining < 0:
                    remaining = 0.0
                flow.remaining = remaining
            if remaining <= _EPSILON_BYTES or (
                    rate > 0 and remaining / rate <= eps_t):
                finished.append(flow)

        active = self._active_routes
        for flow in finished:
            del self._flows[flow.flow_id]
            left = active[flow.route_id] - 1
            if left:
                active[flow.route_id] = left
            else:
                del active[flow.route_id]
            self.completed_transfers += 1
            self.bytes_transferred += flow.size
            flow.done.succeed(TransferStats(
                flow.route.src, flow.route.dst, flow.size,
                flow.requested_at, flow.started_at, now))

        self._recompute_rates()
        self._schedule_next_completion()

    def _recompute_rates(self) -> None:
        """Give every active flow its max-min fair rate."""
        if not self._flows:
            return
        self.rate_lookups += 1
        key = tuple(sorted(self._active_routes.items()))
        rates = self._rate_cache.get(key)
        if rates is None:
            rates = self._water_fill(key)
            if len(self._rate_cache) >= RATE_CACHE_SIZE:
                del self._rate_cache[next(iter(self._rate_cache))]
            self._rate_cache[key] = rates
        else:
            self.rate_cache_hits += 1
        for flow in self._flows.values():
            flow.rate = rates[flow.route_id]

    def _water_fill(self, routes: RouteMultiset) -> Dict[int, float]:
        """Water-filling max-min fair allocation over a route multiset.

        Each step fixes the flows of the link offering the smallest
        fair share (ties to the lower link id) at that share and takes
        it off every link they cross, one flow at a time, so a link's
        capacity is reduced exactly as if its flows were fixed singly.
        """
        remaining_cap: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        link_routes: Dict[int, List[Tuple[int, int]]] = {}
        for route_id, flows in routes:
            for lid in self._route_links[route_id]:
                if lid not in counts:
                    remaining_cap[lid] = self._bandwidth[lid]
                    counts[lid] = 0
                    link_routes[lid] = []
                counts[lid] += flows
                link_routes[lid].append((route_id, flows))

        rates: Dict[int, float] = {}
        while len(rates) < len(routes):
            bottleneck = -1
            fair_share = 0.0
            for lid, n in counts.items():
                if n > 0:
                    share = remaining_cap[lid] / n
                    if bottleneck < 0 or share < fair_share or (
                            share == fair_share and lid < bottleneck):
                        bottleneck, fair_share = lid, share
            rate = fair_share if fair_share > 0 else _MIN_RATE
            for route_id, flows in link_routes[bottleneck]:
                if route_id in rates:
                    continue
                rates[route_id] = rate
                for lid in self._route_links[route_id]:
                    counts[lid] -= flows
                    cap = remaining_cap[lid]
                    for _ in range(flows):
                        cap -= fair_share
                        if cap < 0:
                            cap = 0.0
                    remaining_cap[lid] = cap
        return rates

    def _schedule_next_completion(self) -> None:
        self._timer_version += 1
        if not self._flows:
            return
        next_done = math.inf
        for flow in self._flows.values():
            if flow.rate > 0:
                time_left = flow.remaining / flow.rate
                if time_left < next_done:
                    next_done = time_left
        # Never schedule below the clock's resolution (see _update).
        next_done = max(next_done, 1e-9, abs(self.env.now) * 1e-12)
        version = self._timer_version
        timer = self.env.timeout(next_done)
        timer.add_callback(lambda _e: self._on_timer(version))

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # superseded by a later admit/complete
        self._update()
