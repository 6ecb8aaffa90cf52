"""NoC adapter: typed send + delivery scheduling for hierarchy traffic.

The mesh itself (:class:`repro.noc.mesh.MeshNoc`) is a timing model --
it answers "when does this packet arrive".  :class:`NocLink` is the
hierarchy-side adapter that turns an arrival time into a delivered
message by scheduling the receiver's handler through a
:class:`~repro.sim.hierarchy.port.Port` (never the engine directly).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.noc.mesh import MeshNoc
from repro.sim.hierarchy.port import Port


class NocLink:
    """Request/data packet transport between L2 nodes and LLC slices."""

    __slots__ = ("noc", "port")

    def __init__(self, noc: MeshNoc, port: Port) -> None:
        self.noc = noc
        self.port = port

    def counters(self) -> Dict[str, int]:
        """The mesh's counter group (``noc``), including exact flit-hops
        (each packet's flits x its real XY route length) and the summed
        packet latency (``total_latency``)."""
        stats = self.noc.stats
        return {
            "packets": stats.packets,
            "flits": stats.flits,
            "total_hops": stats.total_hops,
            "flit_hops": stats.flit_hops,
            "high_priority_packets": stats.high_priority_packets,
            "total_latency": stats.total_latency,
        }

    def request(self, src: int, dst: int, now: int, high_priority: bool,
                deliver: Callable[..., None], *args) -> None:
        """Send a single-flit request packet; run ``deliver(*args)`` on
        arrival."""
        arrival = self.noc.send_request(src, dst, now, high_priority)
        self.port.schedule(arrival, deliver, *args)

    def data(self, src: int, dst: int, now: int, high_priority: bool,
             deliver: Optional[Callable[..., None]] = None, *args) -> int:
        """Send a line-sized data packet, returning the arrival cycle.

        Without ``deliver`` the packet only occupies links (fire-and-
        forget writeback traffic); with it, ``deliver(*args)`` runs at
        arrival.
        """
        arrival = self.noc.send_data(src, dst, now, high_priority)
        if deliver is not None:
            self.port.schedule(arrival, deliver, *args)
        return arrival
