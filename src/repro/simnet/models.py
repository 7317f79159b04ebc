"""Link behaviour models.

One :class:`LinkModel` describes a directed node pair (or the network-wide
default): propagation latency with jitter, independent packet loss, a
serialization bandwidth, and an MTU. The values default to something like a
small switched Ethernet segment, the medium the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.util.rng import SeededRng


@dataclass(frozen=True)
class LinkModel:
    """Parameters of one directed link.

    Attributes
    ----------
    latency:
        One-way propagation delay in seconds.
    jitter:
        Half-width of the uniform jitter added to ``latency``.
    loss:
        Independent per-packet loss probability in [0, 1].
    bandwidth_bps:
        Serialization rate in bits per second. ``0`` means infinite.
    mtu:
        Maximum payload size in bytes; larger packets are rejected (the
        Protocol layer must fragment before reaching the wire).
    """

    latency: float = 0.0005  # 0.5 ms — small LAN
    jitter: float = 0.0001
    loss: float = 0.0
    bandwidth_bps: float = 100_000_000.0  # 100 Mbit/s
    mtu: int = 1472  # Ethernet UDP payload

    def __post_init__(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not (0.0 <= self.loss <= 1.0):
            raise ValueError("loss must be a probability")
        if self.bandwidth_bps < 0:
            raise ValueError("bandwidth must be non-negative")
        if self.mtu <= 0:
            raise ValueError("mtu must be positive")

    def serialization_delay(self, size_bytes: int) -> float:
        """Seconds needed to put ``size_bytes`` on the wire."""
        if self.bandwidth_bps == 0:
            return 0.0
        return (size_bytes * 8.0) / self.bandwidth_bps

    def propagation_delay(self, rng: SeededRng) -> float:
        """One sample of the propagation delay."""
        return rng.jittered(self.latency, self.jitter, floor=0.0)

    def drops(self, rng: SeededRng) -> bool:
        """Draw the independent loss event for one packet."""
        return rng.chance(self.loss)

    def sampler(self, rng: SeededRng) -> Callable[[], Optional[float]]:
        """:meth:`drops` then, if the packet survives,
        :meth:`propagation_delay`, fused into one call on ``rng``'s stream:
        each call returns None for a lost packet, else its delay. Draw
        order and values are those of the two methods."""
        return rng.lossy_jitter_sampler(self.loss, self.latency, self.jitter, floor=0.0)


#: A perfect link — zero latency, no loss, infinite bandwidth. Useful in
#: unit tests that exercise protocol logic rather than network behaviour.
PERFECT_LINK = LinkModel(latency=0.0, jitter=0.0, loss=0.0, bandwidth_bps=0.0, mtu=1 << 30)

#: A lossy radio-modem-like link (the UAV-to-ground segment in the paper's
#: scenario): higher latency, visible loss, constrained bandwidth.
RADIO_LINK = LinkModel(
    latency=0.020, jitter=0.005, loss=0.02, bandwidth_bps=1_000_000.0, mtu=1472
)

__all__ = ["LinkModel", "PERFECT_LINK", "RADIO_LINK"]
