"""The fused link draw is the two-step draw it replaces.

``SimNetwork``'s cached emission path draws a receiver's loss and
propagation delay with one call of the pair's sampler
(:meth:`LinkModel.sampler`); the reference path (``optimized=False``) calls
:meth:`LinkModel.drops` and then :meth:`LinkModel.propagation_delay`. For any
seed, latency, jitter (0 included) and loss (0, 1 and values in between),
both must give the same drop/arrival sequence from twin streams and leave
the streams in the same state. The second property checks the same at the
network level: bound endpoints see the same datagrams at the same virtual
times on both paths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.simnet.addressing import Address, GroupName
from repro.simnet.models import LinkModel
from repro.simnet.network import SimNetwork
from repro.simnet.packet import Packet
from repro.util.rng import SeededRng

_seed = st.integers(0, 2**31 - 1)
_latency = st.floats(0.0, 0.05, allow_nan=False)
_jitter = st.one_of(st.just(0.0), st.floats(0.0, 0.05, allow_nan=False))
_loss = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(seed=_seed, latency=_latency, jitter=_jitter, loss=_loss, draws=st.integers(1, 120))
def test_sampler_matches_drops_then_propagation_delay(seed, latency, jitter, loss, draws):
    model = LinkModel(latency=latency, jitter=jitter, loss=loss)
    fused_rng, reference_rng = SeededRng(seed), SeededRng(seed)
    sample = model.sampler(fused_rng)
    fused = [sample() for _ in range(draws)]
    reference = [
        None if model.drops(reference_rng) else model.propagation_delay(reference_rng)
        for _ in range(draws)
    ]
    assert fused == reference
    assert fused_rng._rng.getstate() == reference_rng._rng.getstate()


def _deliveries(optimized, seed, link):
    sim = Simulator()
    net = SimNetwork(sim, SeededRng(seed), default_link=link, optimized=optimized)
    group = GroupName("mcast.file.prop")
    got = []
    for node in ("a", "b", "c", "d"):
        nic = net.attach(node)
        nic.bind(7, lambda payload, source, n=node: got.append((n, sim.now(), source, payload)))
        nic.join(group)
    a = net.attach("a")
    for i in range(30):
        a.send(Packet(Address("a", 7), group, bytes([i])))
        a.send(Packet(Address("a", 7), Address("c", 7), bytes([i])))
        # Another port on c: counted as delivered, never handed to c's endpoint.
        a.send(Packet(Address("a", 7), Address("c", 8), bytes([i])))
    sim.run()
    return got, net.stats.snapshot()


@settings(max_examples=60, deadline=None)
@given(seed=_seed, latency=_latency, jitter=_jitter, loss=_loss)
def test_cached_path_matches_reference_path(seed, latency, jitter, loss):
    link = LinkModel(latency=latency, jitter=jitter, loss=loss)
    assert _deliveries(True, seed, link) == _deliveries(False, seed, link)
