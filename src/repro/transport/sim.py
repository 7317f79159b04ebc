"""Transport bound to the simulated network."""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.simnet.addressing import Address, GroupName
from repro.simnet.network import SimNetwork
from repro.simnet.packet import Destination, Packet
from repro.transport.base import RawReceiver
from repro.util.errors import TransportError


class SimTransport:
    """A :class:`RawTransport` over :class:`repro.simnet.SimNetwork`.

    One instance per container; it owns the node's NIC binding, bound to
    the container's port like a socket (unicast for other ports is not
    delivered to it), which is how the container "hides the bookkeeping
    related with the management of UDP/TCP ports and multicast groups" (§3)
    from services. The receiver passed to :meth:`open` is bound to the NIC
    itself, so an inbound datagram reaches it with no hop in between.
    Outbound, :meth:`send_bytes` hands each packet to the network's emission
    path directly, not through :meth:`SimNic.send`.
    """

    def __init__(self, network: SimNetwork, node: str):
        self._network = network
        self._nic = network.attach(node)
        self._emit = partial(network._emit, self._nic)
        self._node = node
        #: The bound source address, built once at open(): every outbound
        #: packet carries it.
        self._address: Optional[Address] = None
        self._open = False

    @property
    def node(self) -> str:
        return self._node

    @property
    def mtu(self) -> int:
        mtu = self._nic.mtu
        return mtu if mtu is not None else self._network.mtu_of(self._node)

    def open(self, port: int, receiver: RawReceiver) -> Address:
        if self._open:
            raise TransportError(f"transport on {self._node} already open")
        self._address = Address(self._node, port)
        self._nic.bind(port, receiver)
        self._open = True
        return self._address

    def send_bytes(self, destination: Destination, payload: bytes) -> None:
        if not self._open:
            raise TransportError("transport not open")
        self._emit(Packet(self._address, destination, payload))

    def join(self, group: GroupName) -> None:
        self._nic.join(group)

    def leave(self, group: GroupName) -> None:
        self._nic.leave(group)

    def close(self) -> None:
        self._nic.set_receiver(None)
        self._open = False


__all__ = ["SimTransport"]
