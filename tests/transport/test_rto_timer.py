"""The sender's retransmission timer: one lazy deadline per session.

Re-arming on an ACK only moves the session's deadline; kernel events
are pushed sparingly and at the absolute deadline, so timeouts fire at
exactly ``arm time + rto``.
"""

from repro.net import Host
from repro.net.loss import NoLoss
from repro.sim import Process
from repro.xia import NID, DagAddress
from repro.xia.packet import PacketType

from tests.transport.test_reliable import CONFIG, Pair


def record_timeouts(sender):
    """Note the sim time of every RTO expiry of ``sender``."""
    times = []
    on_timeout = sender._on_timeout

    def recording():
        times.append(sender.sim.now)
        on_timeout()

    sender._on_timeout = recording
    return times


def pending_rto_events(sim, sender):
    timer = sender._on_timer
    return sum(
        1 for _, _, _, event in sim._queue
        if event.callbacks and timer in event.callbacks
    )


def expected_backoff(start, until):
    """``start + 5 * min_rto``, then doubling intervals capped at max_rto."""
    times = []
    t, rto = start, CONFIG.min_rto * 5
    while t + rto <= until:
        t = t + rto
        times.append(t)
        rto = min(rto * 2, CONFIG.max_rto)
    return times


def test_timeouts_back_off_exactly_when_no_ack_arrives():
    pair = Pair()
    pair.sim.run(until=0.123)  # an arm time with a non-trivial float
    pair.link.set_up(False)
    start = pair.sim.now
    sender, _ = pair.start(200_000)
    times = record_timeouts(sender)
    pair.sim.run(until=60.0)
    expected = expected_backoff(start, 60.0)
    assert times == expected  # float equality, not approx
    assert sender.timeouts == len(expected)
    assert len(expected) > 6 and sender.rto == CONFIG.max_rto  # capped
    assert sender.head == 0


def test_at_most_two_rto_events_pending_during_a_clean_transfer():
    pair = Pair()
    sender, receiver = pair.start(2_000_000)
    peaks = []
    pair.sim.add_step_hook(
        lambda when, event: peaks.append(pending_rto_events(pair.sim, sender))
    )
    pair.sim.run(until=receiver.done)
    if not sender.done.triggered:
        pair.sim.run(until=sender.done)
    assert receiver.bytes_received == 2_000_000
    assert sender.timeouts == 0
    assert 1 <= max(peaks) <= 2
    # Thousands of ACKs re-armed the timer; few kernel events did.
    assert len(peaks) > 5_000


def test_no_timeout_fires_after_done():
    pair = Pair(loss=0.05)
    sender, receiver = pair.start(300_000)
    times = record_timeouts(sender)
    pair.sim.run(until=receiver.done)
    if not sender.done.triggered:
        pair.sim.run(until=sender.done)
    done_at = pair.sim.now
    assert sender.timeouts > 0  # the lossy path did exercise the timer
    pair.link.set_up(False)
    pair.sim.run(until=done_at + 10 * CONFIG.max_rto)
    assert max(times) <= done_at
    assert sender._rto_deadline is None
    assert pending_rto_events(pair.sim, sender) == 0


class Blackhole(NoLoss):
    """Drops every packet."""

    def dropped(self, now):
        return True


def test_no_timeout_fires_inside_the_migration_pause():
    config = CONFIG.with_(migration_delay=2.0)
    pair = Pair(config=config)
    sender, receiver = pair.start(2_000_000, config=config)
    times = record_timeouts(sender)
    pair.sim.run(until=0.05)
    assert receiver.started.triggered and not receiver.done.triggered
    # Black-hole the data direction and let the last ACKs drain: from
    # here on no ACK can re-arm (or clear) the sender's timer.
    pair.link.forward.loss = Blackhole()
    pair.sim.run(until=0.06)
    due = sender._rto_deadline
    moved = DagAddress.host(pair.b.hid, NID("elsewhere"))
    pair.sim.process(receiver.migrate(moved))
    while not sender._paused:
        pair.sim.step()
    paused_at = pair.sim.now
    resume_at = paused_at + config.migration_delay
    assert paused_at < due < resume_at  # the armed timer was due mid-pause
    pair.sim.run(until=resume_at)
    assert times == [] and sender.timeouts == 0
    pair.sim.run(until=resume_at + 1.0)
    assert not sender._paused
    # Resuming re-armed the timer, and with the path dead it fires.
    assert times[0] == resume_at + max(sender.srtt * 2, CONFIG.min_rto)


def test_first_rtt_sample_pulls_the_deadline_earlier():
    pair = Pair()
    sender, _ = pair.start(2_000_000)
    arms = []
    arm_timer = sender._arm_timer

    def recording_arm():
        arm_timer()
        arms.append((pair.sim.now, sender.rto, sender._rto_deadline))

    sender._arm_timer = recording_arm
    times = record_timeouts(sender)
    initial_deadline = 0.0 + CONFIG.min_rto * 5
    while sender.srtt is None:
        pair.sim.step()
    pair.link.set_up(False)  # no further ACK arrives
    last_arm_at, last_rto, deadline = arms[-1]
    pair.sim.run(until=initial_deadline + 1.0)
    assert last_rto < CONFIG.min_rto * 5
    assert deadline == last_arm_at + last_rto
    assert times[0] == deadline < initial_deadline


class MobileHost(Host):
    """A host whose attachment the test sets directly."""

    current_nid = None


def test_acks_carry_the_current_attachment_and_reuse_its_address():
    pair = Pair(host_b=MobileHost)
    sources = []
    send = pair.b.send

    def recording_send(packet, port=None):
        if packet.ptype is PacketType.ACK:
            sources.append((phase, packet.src))
        send(packet, port)

    pair.b.send = recording_send
    net1, net2 = NID("net-1"), NID("net-2")
    phase = "net-1"
    pair.b.current_nid = net1
    sender, receiver = pair.start(2_000_000)
    pair.sim.run(until=0.1)
    phase = "offline"
    pair.b.current_nid = None
    pair.sim.run(until=0.2)
    phase = "net-2"
    pair.b.current_nid = net2
    pair.sim.run(until=receiver.done)

    by_phase = {}
    for name, src in sources:
        by_phase.setdefault(name, []).append(src)
    assert set(by_phase) == {"net-1", "offline", "net-2"}
    hid = pair.b.hid
    expected = {
        "net-1": DagAddress.host(hid, net1),
        "offline": DagAddress.host(hid),
        "net-2": DagAddress.host(hid, net2),
    }
    for name, dags in by_phase.items():
        assert len(dags) > 10
        assert all(dag == expected[name] for dag in dags), name
        # One address object per attachment, reused by every ACK.
        assert all(dag is dags[0] for dag in dags), name
    assert by_phase["net-1"][0] is not by_phase["net-2"][0]


def test_call_at_fires_at_the_exact_absolute_time():
    pair = Pair()
    sim = pair.sim
    sim.run(until=0.764)
    when = 3.296  # a relative delay would round: now + (when - now) != when
    assert sim.now + (when - sim.now) != when
    fired = []
    sim.call_at(when, lambda event: fired.append(sim.now), name="probe")
    sim.run()
    assert fired == [when]


def test_no_timer_process_is_started_per_ack():
    pair = Pair()
    processes = []
    original = Process.__init__

    def counting(self, sim, generator, name=""):
        processes.append(getattr(generator, "__name__", ""))
        original(self, sim, generator, name)

    Process.__init__ = counting
    try:
        sender, receiver = pair.start(500_000)
        pair.sim.run(until=receiver.done)
    finally:
        Process.__init__ = original
    # The sender loop; nothing per ACK.
    assert processes == ["_sender_loop"]
