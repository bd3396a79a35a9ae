"""Tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first, second, third = resource.request(), resource.request(), resource.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert resource.count == 2
    assert resource.queue_length == 1


def test_resource_release_grants_next_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    first = resource.request()
    second = resource.request()
    resource.release(first)
    assert second.triggered
    assert resource.count == 1


def test_resource_context_manager_releases():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(sim, name, hold):
        with resource.request() as req:
            yield req
            order.append((sim.now, name, "acquired"))
            yield sim.timeout(hold)
        order.append((sim.now, name, "released"))

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 1.0))
    sim.run()
    assert order == [
        (0.0, "a", "acquired"),
        (2.0, "a", "released"),
        (2.0, "b", "acquired"),
        (3.0, "b", "released"),
    ]


def test_resource_fifo_ordering():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    acquired = []

    def worker(sim, name):
        with resource.request() as req:
            yield req
            acquired.append(name)
            yield sim.timeout(1.0)

    for name in "abcd":
        sim.process(worker(sim, name))
    sim.run()
    assert acquired == list("abcd")


def test_resource_cancel_removes_from_queue():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.request()
    waiting = resource.request()
    waiting.cancel()
    assert resource.queue_length == 0


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


# -- try_acquire: the synchronous fast path ---------------------------------


def test_try_acquire_grants_when_free():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    one = resource.try_acquire()
    two = resource.try_acquire()
    assert one is not None and two is not None
    assert resource.count == 2
    assert resource.try_acquire() is None  # at capacity
    resource.release(one)
    assert resource.try_acquire() is not None


def test_try_acquire_refuses_while_processes_wait():
    """The fast path must not jump the FIFO queue."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    holder = resource.request()
    assert holder.triggered
    waiter = resource.request()
    assert not waiter.triggered
    # A slot is busy AND someone queues: no synchronous grant.
    assert resource.try_acquire() is None
    resource.release(holder)
    sim.run()
    assert waiter.triggered  # the waiter got the slot, not a fast token


def test_try_acquire_token_works_as_context_manager():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    with resource.try_acquire():
        assert resource.count == 1
    assert resource.count == 0


def test_try_acquire_is_heap_free():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    before = sim.heap_pushes
    token = resource.try_acquire()
    resource.release(token)
    assert sim.heap_pushes == before


def test_try_acquire_yieldable_resumes_immediately():
    """A process yielding a fast token continues without stalling."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def worker(sim):
        token = resource.try_acquire()
        assert token is not None
        yield token
        log.append(sim.now)
        yield sim.timeout(1.0)
        resource.release(token)
        log.append(sim.now)

    sim.process(worker(sim))
    sim.run()
    assert log == [0.0, 1.0]


def test_mixed_fast_and_queued_acquisition_stays_fifo():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    grants = []

    def fast_then_release(sim):
        token = resource.try_acquire()
        grants.append("fast")
        yield sim.timeout(2.0)
        resource.release(token)

    def queued(sim, name):
        request = resource.request()
        yield request
        grants.append(name)
        yield sim.timeout(1.0)
        resource.release(request)

    sim.process(fast_then_release(sim))
    sim.process(queued(sim, "first"))
    sim.process(queued(sim, "second"))
    sim.run()
    assert grants == ["fast", "first", "second"]
