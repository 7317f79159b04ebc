"""``SimTransport.mtu`` is cached on the NIC and follows link changes.

The frame transport reads the MTU once per outbound frame to decide whether
to fragment. The sim transport answers from its NIC's cached value instead
of resolving the node's link each time; ``set_link`` and
``set_default_link`` must drop that value, or frames would be fragmented
to a stale MTU.
"""

from repro.sim import Simulator
from repro.simnet import LinkModel, SimNetwork
from repro.transport import SimTransport
from repro.util import SeededRng


def _network():
    return SimNetwork(Simulator(), SeededRng(1), default_link=LinkModel(mtu=1400))


def test_mtu_follows_the_default_link():
    net = _network()
    transport = SimTransport(net, "a")
    assert transport.mtu == 1400
    net.set_default_link(LinkModel(mtu=600))
    assert transport.mtu == 600


def test_mtu_follows_the_nodes_own_link():
    net = _network()
    a, b = SimTransport(net, "a"), SimTransport(net, "b")
    assert (a.mtu, b.mtu) == (1400, 1400)
    net.set_link("a", "a", LinkModel(mtu=900))
    assert (a.mtu, b.mtu) == (900, 1400)
    # A link between two other nodes leaves both MTUs as they were.
    net.set_link("a", "b", LinkModel(mtu=300))
    assert (a.mtu, b.mtu) == (900, 1400)

