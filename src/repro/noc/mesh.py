"""Mesh network-on-chip with XY routing and two priority classes.

Table 3 describes an 8x8 mesh of 2-stage wormhole routers, six virtual
channels, eight flits per data packet and one per address packet.  A
flit-accurate wormhole simulation is unnecessary for the paper's effect --
what matters is (i) hop latency, (ii) per-link serialisation (one flit per
cycle), and (iii) that demand and *criticality-flagged* prefetch packets are
prioritised over plain prefetch packets (section 4.2, "Load Criticality
conscious NOC and DRAM").

We model each directed link with reservation timestamps: a packet walks its
XY path reserving link time.  High-priority packets queue only behind other
high-priority traffic (idealised priority); low-priority packets queue
behind everything.  DESIGN.md section 2 records this approximation.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.invariants import SimulationInvariantError
from repro.config import NocConfig


class NocStats:
    """Aggregate NoC statistics."""

    def __init__(self) -> None:
        self.packets = 0
        self.flits = 0
        self.total_latency = 0
        self.total_hops = 0
        #: Exact flit-hop count (each packet's flits x its XY route
        #: length) -- the quantity the energy model charges per link
        #: traversal; local (src == dst) deliveries contribute none.
        self.flit_hops = 0
        self.high_priority_packets = 0

    @property
    def average_latency(self) -> float:
        if not self.packets:
            return 0.0
        return self.total_latency / self.packets


class MeshNoc:
    """An N x N mesh; nodes are numbered row-major."""

    def __init__(self, dim: int, config: NocConfig | None = None) -> None:
        self.dim = dim
        self.config = config or NocConfig()
        # (from_node, to_node) -> [high-priority reserved-until,
        #                          any-priority reserved-until]
        self._links: Dict[Tuple[int, int], List[int]] = {}
        # XY routes are static, so (src, dst) -> link list is memoised;
        # a dim x dim mesh has at most dim^4 pairs and send() is hot.
        self._routes: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self.stats = NocStats()

    # ------------------------------------------------------------------

    def coordinates(self, node: int) -> Tuple[int, int]:
        return node % self.dim, node // self.dim

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """XY route: walk X first, then Y; returns directed link list."""
        if not (0 <= src < self.dim ** 2 and 0 <= dst < self.dim ** 2):
            raise ValueError("node out of range")
        links: List[Tuple[int, int]] = []
        x, y = self.coordinates(src)
        dst_x, dst_y = self.coordinates(dst)
        node = src
        while x != dst_x:
            x += 1 if dst_x > x else -1
            nxt = y * self.dim + x
            links.append((node, nxt))
            node = nxt
        while y != dst_y:
            y += 1 if dst_y > y else -1
            nxt = y * self.dim + x
            links.append((node, nxt))
            node = nxt
        return links

    def hops(self, src: int, dst: int) -> int:
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, now: int, flits: int,
             high_priority: bool) -> int:
        """Reserve the path for one packet; returns its arrival cycle."""
        config = self.config
        if flits < 1:
            raise SimulationInvariantError(
                f"packet with {flits} flits cannot traverse the mesh")
        per_hop = config.router_latency + config.link_latency
        time = now
        if src == dst:
            # Local slice access: one router traversal, no links.
            return now + config.router_latency
        pair = (src, dst)
        path = self._routes.get(pair)
        if path is None:
            path = self.route(src, dst)
            self._routes[pair] = path
        links = self._links
        data_packet_flits = config.data_packet_flits
        for link in path:
            reserved = links.get(link)
            if reserved is None:
                reserved = [0, 0]
                links[link] = reserved
            if high_priority:
                # Priority VCs jump the queue but cannot preempt a packet
                # already on the wire: wait out up to one data packet of
                # the low-priority backlog.
                earliest = max(reserved[0],
                               reserved[1] - data_packet_flits)
            else:
                earliest = reserved[1]
            start = max(time, earliest)
            finish = start + per_hop + flits - 1
            if high_priority:
                reserved[0] = max(reserved[0], finish)
            reserved[1] = max(reserved[1], finish)
            # Wormhole pipelining: the head flit moves on after the hop
            # latency; serialisation tails overlap across hops.
            time = start + per_hop
        arrival = time + flits - 1
        stats = self.stats
        stats.packets += 1
        stats.flits += flits
        stats.total_latency += arrival - now
        # One XY link per hop, so the memoised path doubles as the count.
        stats.total_hops += len(path)
        stats.flit_hops += flits * len(path)
        if high_priority:
            stats.high_priority_packets += 1
        return arrival

    def send_request(self, src: int, dst: int, now: int,
                     high_priority: bool = True) -> int:
        """Address packet (1 flit)."""
        return self.send(src, dst, now, self.config.address_packet_flits,
                         high_priority)

    def send_data(self, src: int, dst: int, now: int,
                  high_priority: bool = True) -> int:
        """Data packet (8 flits for one 64B line)."""
        return self.send(src, dst, now, self.config.data_packet_flits,
                         high_priority)
