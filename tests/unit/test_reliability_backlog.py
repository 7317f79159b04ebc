"""The reliable sender's backlog is a FIFO.

Frames sent while the window is full wait in ``ReliableSender._backlog``
(unbounded by default) and leave it oldest first: as ACKs open the window,
and through the failure callback when ``ReliableLinks.reset_peer`` forgets
a peer.
"""

from collections import deque

from repro.container.links import ReliableLinks
from repro.protocol.frames import MessageKind
from repro.protocol.reliability import ReliableSender, RetransmitPolicy
from repro.util import ManualClock


class _NoTimers:
    """A timer service whose timers never fire."""

    def schedule(self, delay, fn):
        return self

    def cancel(self):
        pass


def _sender(window):
    wire = []
    sender = ReliableSender(
        clock=ManualClock(),
        source="tx",
        channel=1,
        emit=wire.append,
        policy=RetransmitPolicy(initial_rto=0.1, window=window),
    )
    return sender, wire


def test_backlog_drains_oldest_first():
    sender, wire = _sender(window=2)
    seqs = [sender.send(MessageKind.EVENT, bytes([i])) for i in range(50)]
    assert seqs == list(range(1, 51))
    assert isinstance(sender._backlog, deque)
    assert [f.seq for f in wire] == [1, 2]
    # Acknowledge out of order, one seq at a time: every opening of the
    # window sends the oldest waiting frame.
    for seq in [2, 1] + list(range(3, 49)):
        sender.on_acked([seq])
    assert [f.seq for f in wire] == list(range(1, 51))
    assert [f.payload for f in wire] == [bytes([i]) for i in range(50)]
    assert sender.unacked == 2


def test_multi_seq_ack_drains_in_order():
    sender, wire = _sender(window=3)
    for i in range(10):
        sender.send(MessageKind.EVENT, bytes([i]))
    sender.on_acked([1, 2, 3])
    assert [f.seq for f in wire] == [1, 2, 3, 4, 5, 6]
    sender.on_acked([5, 4, 6])
    assert [f.seq for f in wire] == list(range(1, 10))


def test_reset_peer_fails_in_flight_then_backlog_in_order():
    clock = ManualClock()
    failed = []
    links = ReliableLinks(
        clock=clock,
        timers=_NoTimers(),
        local="a",
        send_to_peer=lambda peer, frame: None,  # everything is lost
        deliver=lambda frame: None,
        on_peer_failure=lambda peer, frame: failed.append((peer, frame.seq, frame.payload)),
        policy=RetransmitPolicy(initial_rto=0.1, window=2),
    )
    for i in range(7):
        links.send("b", MessageKind.EVENT, bytes([i]))
    assert links.pending_to("b") == 7
    links.reset_peer("b")
    assert failed == [("b", i + 1, bytes([i])) for i in range(7)]
    assert links.pending_to("b") == 0
