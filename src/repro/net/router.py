"""Routers with flow-level ECMP load balancing.

Section 4.4 of the paper exploits networks that load-balance flows over
multiple equal-cost paths by hashing the four-tuple.  The :class:`Router`
here reproduces exactly that behaviour: an :class:`EcmpGroup` maps a flow
hash onto one of several outgoing interfaces, so every subflow (a distinct
four-tuple) is pinned to one path, and distinct subflows may collide on the
same path — the effect the ndiffports baseline suffers from.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Union

from repro.net.addressing import IPAddress
from repro.net.interface import Interface
from repro.net.node import Node
from repro.net.packet import Segment
from repro.sim.engine import Simulator

_pack_flow_key = struct.Struct("!IHIH").pack


def ecmp_hash(src: int, sport: int, dst: int, dport: int, salt: int) -> int:
    """CRC-32 of a flow's canonical key, from its four ints.

    The key is the bytes of :meth:`repro.net.addressing.FourTuple.ecmp_key`
    (the smaller of the two directions, packed), built without a
    :class:`FourTuple`, so both directions of a flow hash alike.
    """
    if src < dst or (src == dst and sport <= dport):
        return zlib.crc32(_pack_flow_key(src, sport, dst, dport), salt)
    return zlib.crc32(_pack_flow_key(dst, dport, src, sport), salt)


class EcmpGroup:
    """An ordered set of outgoing interfaces sharing equal-cost routes."""

    def __init__(self, iface_names: list[str], salt: int = 0) -> None:
        if not iface_names:
            raise ValueError("an ECMP group needs at least one interface")
        self._iface_names = list(iface_names)
        self._salt = salt

    @property
    def interfaces(self) -> list[str]:
        """The member interface names, in hashing order."""
        return list(self._iface_names)

    @property
    def width(self) -> int:
        """Number of equal-cost paths in the group."""
        return len(self._iface_names)

    def select(self, segment: Segment) -> str:
        """Pick the member interface for this segment's flow."""
        return self._iface_names[self.path_index(segment)]

    def path_index(self, segment: Segment) -> int:
        """Index of the path this segment's flow hashes onto."""
        digest = ecmp_hash(segment.src._value, segment.sport, segment.dst._value, segment.dport, self._salt)
        return digest % len(self._iface_names)


class Router(Node):
    """A static router with exact-match routes and ECMP groups."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        # Keyed by the destination's 32-bit int, so forwarding looks a
        # route up without rebuilding an IPAddress.
        self._routes: dict[int, Union[str, EcmpGroup]] = {}
        self._default: Optional[Union[str, EcmpGroup]] = None
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0
        self.dropped_iface_down = 0

    # ------------------------------------------------------------------
    # routing configuration
    # ------------------------------------------------------------------
    def add_route(self, destination: IPAddress | str, via: Union[str, EcmpGroup]) -> None:
        """Route an exact destination address via an interface or ECMP group."""
        self._check_target(via)
        self._routes[IPAddress(destination)._value] = via

    def set_default_route(self, via: Union[str, EcmpGroup]) -> None:
        """Route every unmatched destination via an interface or ECMP group."""
        self._check_target(via)
        self._default = via

    def _check_target(self, via: Union[str, EcmpGroup]) -> None:
        names = [via] if isinstance(via, str) else via.interfaces
        for name in names:
            if name not in self.interfaces:
                raise KeyError(f"router {self.name} has no interface named {name!r}")

    def lookup(self, destination: IPAddress | str) -> Optional[Union[str, EcmpGroup]]:
        """Return the configured route target for a destination, if any."""
        return self._routes.get(IPAddress(destination)._value, self._default)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def receive(self, segment: Segment, iface: Interface) -> None:
        # The per-hop fast path: ownership, route and ECMP member are
        # resolved from the segment's ints, with no property calls.
        dst = segment.dst._value
        if dst in self._address_index:
            # Routers terminate nothing in this reproduction; a segment for
            # the router itself is silently dropped.
            return
        if segment.ttl <= 1:
            self.dropped_ttl += 1
            return
        target = self._routes.get(dst, self._default)
        if target is None:
            self.dropped_no_route += 1
            return
        if target.__class__ is not str:  # an EcmpGroup
            names = target._iface_names
            target = names[
                ecmp_hash(segment.src._value, segment.sport, dst, segment.dport, target._salt) % len(names)
            ]
        out_iface = self._interfaces[target]
        if not out_iface._up:
            self.dropped_iface_down += 1
            return
        segment.ttl -= 1
        self.forwarded += 1
        out_iface.send(segment)
