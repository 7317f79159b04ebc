"""Real-socket UDP transport for the threaded runtime.

Each node maps to a UDP socket on 127.0.0.1. Unicast is a plain ``sendto``;
multicast groups are emulated with a shared in-process membership registry
and sender-side fan-out (loopback interfaces rarely support true IGMP, and
the runtime is single-process anyway). The PEPt layering means nothing
above this module can tell the difference.

The registry is copy-on-write: every mutation (register/unregister/join/
leave — rare, topology-time events) rebuilds an immutable
:class:`RegistryView` under the mutation lock and publishes it with one
attribute store. The send path — called for every datagram — reads the
current view without taking any lock (an attribute load is atomic under
the GIL), and multicast fan-out walks a pre-sorted, pre-resolved member
tuple instead of re-sorting and re-resolving per send.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, Optional, Set, Tuple

from repro.simnet.addressing import Address, GroupName
from repro.simnet.packet import Destination
from repro.transport.base import RawReceiver
from repro.util.errors import TransportError

#: Loopback-safe datagram size.
UDP_MTU = 8192

#: A resolved multicast member: (node, port, sockaddr).
_Member = Tuple[str, int, Tuple[str, int]]


class RegistryView:
    """An immutable snapshot of the network registry.

    Send paths hold a reference to one view for the duration of a send;
    concurrent mutations publish a *new* view and never touch this one, so
    no lock is needed on the read side. ``sockaddr_to_node`` maps a socket
    address to the prebuilt :class:`Address` of the node bound there, so a
    receive path hands it on without building one per datagram.
    """

    __slots__ = ("node_to_sockaddr", "sockaddr_to_node", "groups")

    def __init__(
        self,
        node_to_sockaddr: Dict[Tuple[str, int], Tuple[str, int]],
        sockaddr_to_node: Dict[Tuple[str, int], Address],
        groups: Dict[GroupName, Tuple[_Member, ...]],
    ):
        self.node_to_sockaddr = node_to_sockaddr
        self.sockaddr_to_node = sockaddr_to_node
        self.groups = groups


_EMPTY_VIEW = RegistryView({}, {}, {})


class UdpNetwork:
    """Shared state of one wall-clock-runtime 'LAN': node → socket address
    mapping plus multicast membership, published as copy-on-write views."""

    def __init__(
        self, host: str = "127.0.0.1", base_port: int = 0, lock_recorder=None
    ):
        self.host = host
        self.base_port = base_port  # 0 = ephemeral ports chosen by the OS
        lock = threading.Lock()
        if lock_recorder is not None:
            lock = lock_recorder.wrap(lock, "udpnetwork.registry")
        self._lock = lock
        self._node_to_sockaddr: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self._sockaddr_to_node: Dict[Tuple[str, int], Address] = {}
        self._group_members: Dict[GroupName, Set[Tuple[str, int]]] = {}
        self._next_port_offset = 0
        #: The current immutable snapshot; republished on every mutation.
        self.view: RegistryView = _EMPTY_VIEW

    def create_transport(self, node: str) -> "UdpTransport":
        return UdpTransport(self, node)

    # -- port allotment ------------------------------------------------------
    def _allot_bind_port(self) -> int:
        """The OS port the next transport should bind.

        With ``base_port == 0`` every socket gets an ephemeral port. With a
        non-zero base, ports are deterministic: ``base_port``, ``base_port+1``,
        … in open order, so a test harness can predict (and pre-clash) them.
        """
        if self.base_port == 0:
            return 0
        with self._lock:
            port = self.base_port + self._next_port_offset
            self._next_port_offset += 1
        return port

    # -- registry used by transports ----------------------------------------
    def _rebuild_view(self) -> None:
        """Rebuild and publish the snapshot. Caller holds ``self._lock``."""
        node_to_sockaddr = dict(self._node_to_sockaddr)
        groups: Dict[GroupName, Tuple[_Member, ...]] = {}
        for group, members in self._group_members.items():
            resolved = []
            for node, port in sorted(members):
                sockaddr = node_to_sockaddr.get((node, port))
                if sockaddr is not None:  # closed-but-never-left members drop out
                    resolved.append((node, port, sockaddr))
            groups[group] = tuple(resolved)
        self.view = RegistryView(
            node_to_sockaddr, dict(self._sockaddr_to_node), groups
        )

    def _register(self, node: str, port: int, sockaddr: Tuple[str, int]) -> None:
        with self._lock:
            self._node_to_sockaddr[(node, port)] = sockaddr
            self._sockaddr_to_node[sockaddr] = Address(node, port)
            self._rebuild_view()

    def _unregister(self, node: str, port: int) -> None:
        with self._lock:
            sockaddr = self._node_to_sockaddr.pop((node, port), None)
            if sockaddr is not None:
                self._sockaddr_to_node.pop(sockaddr, None)
            self._rebuild_view()

    def _resolve(self, address: Address) -> Optional[Tuple[str, int]]:
        return self.view.node_to_sockaddr.get((address.node, address.port))

    def _source_of(self, sockaddr: Tuple[str, int]) -> Optional[Address]:
        return self.view.sockaddr_to_node.get(sockaddr)

    def _join(self, node: str, port: int, group: GroupName) -> None:
        with self._lock:
            self._group_members.setdefault(group, set()).add((node, port))
            self._rebuild_view()

    def _leave(self, node: str, port: int, group: GroupName) -> None:
        with self._lock:
            members = self._group_members.get(group)
            if members:
                members.discard((node, port))
                self._rebuild_view()

    def _members(self, group: GroupName) -> Set[Tuple[str, int]]:
        """Resolved members of ``group`` as (node, port) pairs."""
        return {(node, port) for node, port, _ in self.view.groups.get(group, ())}


class UdpTransport:
    """A :class:`RawTransport` over one real UDP socket."""

    def __init__(self, network: UdpNetwork, node: str):
        self._network = network
        self._node = node
        self._port: Optional[int] = None
        self._socket: Optional[socket.socket] = None
        self._receiver: Optional[RawReceiver] = None
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    @property
    def node(self) -> str:
        return self._node

    @property
    def mtu(self) -> int:
        return UDP_MTU

    def open(self, port: int, receiver: RawReceiver) -> Address:
        if self._socket is not None:
            raise TransportError("transport already open")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        bind_port = self._network._allot_bind_port()
        try:
            sock.bind((self._network.host, bind_port))
        except OSError as exc:
            sock.close()
            raise TransportError(
                f"cannot bind UDP port {bind_port} for node {self._node!r}: {exc}"
            ) from exc
        sock.settimeout(0.2)
        self._socket = sock
        self._port = port
        self._receiver = receiver
        self._network._register(self._node, port, sock.getsockname())
        self._closing = False
        self._thread = threading.Thread(
            target=self._recv_loop, name=f"udp-{self._node}", daemon=True
        )
        self._thread.start()
        return Address(self._node, port)

    def send_bytes(self, destination: Destination, payload: bytes) -> None:
        if self._socket is None:
            raise TransportError("transport not open")
        if len(payload) > UDP_MTU:
            raise TransportError(f"payload exceeds UDP MTU {UDP_MTU}")
        view = self._network.view  # one atomic read; no lock on the send path
        if isinstance(destination, GroupName):
            for node, port, sockaddr in view.groups.get(destination, ()):
                if node == self._node and port == self._port:
                    continue
                self._socket.sendto(payload, sockaddr)
        else:
            sockaddr = view.node_to_sockaddr.get(
                (destination.node, destination.port)
            )
            if sockaddr is None:
                return  # unknown destination: dropped, like a LAN
            self._socket.sendto(payload, sockaddr)

    def join(self, group: GroupName) -> None:
        if self._port is None:
            raise TransportError("transport not open")
        self._network._join(self._node, self._port, group)

    def leave(self, group: GroupName) -> None:
        if self._port is not None:
            self._network._leave(self._node, self._port, group)

    def close(self) -> None:
        self._closing = True
        if self._socket is not None:
            self._network._unregister(self._node, self._port)
            if self._thread is not None:
                self._thread.join(timeout=1.0)
            self._socket.close()
            self._socket = None

    # -- internals -----------------------------------------------------------
    def _recv_loop(self) -> None:
        while not self._closing:
            try:
                payload, sockaddr = self._socket.recvfrom(UDP_MTU + 1)
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed
            source = self._network._source_of(sockaddr)
            if source is None:
                source = Address("unknown", 0)
            receiver = self._receiver
            if receiver is not None:
                receiver(payload, source)


__all__ = ["UdpNetwork", "UdpTransport", "RegistryView", "UDP_MTU"]
