"""Transport bound to the simulated network."""

from __future__ import annotations

from typing import Optional

from repro.simnet.addressing import Address, GroupName
from repro.simnet.network import SimNetwork
from repro.simnet.packet import Destination, Packet
from repro.transport.base import RawReceiver
from repro.util.errors import TransportError


class SimTransport:
    """A :class:`RawTransport` over :class:`repro.simnet.SimNetwork`.

    One instance per container; it owns the node's NIC binding and filters
    inbound packets by destination port, which is how the container "hides
    the bookkeeping related with the management of UDP/TCP ports and
    multicast groups" (§3) from services.
    """

    def __init__(self, network: SimNetwork, node: str):
        self._network = network
        self._nic = network.attach(node)
        self._node = node
        self._port: Optional[int] = None
        #: The bound source address, built once at open(): every outbound
        #: packet carries it.
        self._address: Optional[Address] = None
        self._receiver: Optional[RawReceiver] = None
        self._open = False

    @property
    def node(self) -> str:
        return self._node

    @property
    def mtu(self) -> int:
        return self._network.link_for(self._node, self._node).mtu

    def open(self, port: int, receiver: RawReceiver) -> Address:
        if self._open:
            raise TransportError(f"transport on {self._node} already open")
        self._port = port
        self._address = Address(self._node, port)
        self._receiver = receiver
        self._nic.set_receiver(self._on_packet)
        self._open = True
        return self._address

    def send_bytes(self, destination: Destination, payload: bytes) -> None:
        if not self._open:
            raise TransportError("transport not open")
        self._nic.send(
            Packet(source=self._address, destination=destination, payload=payload)
        )

    def join(self, group: GroupName) -> None:
        self._nic.join(group)

    def leave(self, group: GroupName) -> None:
        self._nic.leave(group)

    def close(self) -> None:
        self._nic.set_receiver(lambda packet: None)
        self._open = False

    # -- internals -----------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if self._receiver is None:
            return
        # Unicast packets for other ports on this node are not ours;
        # multicast is delivered to every joined NIC regardless of port.
        if isinstance(packet.destination, Address) and packet.destination.port != self._port:
            return
        self._receiver(packet.payload, packet.source)


__all__ = ["SimTransport"]
