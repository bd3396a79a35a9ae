"""Shared resources: capacity-limited resources.

These follow the SimPy idioms: ``request()``/``release()`` pairs return
events a process yields on, and ``with`` blocks are supported.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.core import Event, PENDING, Simulator


class _Request(Event):
    """A pending resource acquisition; usable as a context manager."""

    __slots__ = ("resource", "_fast")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name="request")
        self.resource = resource
        #: True for tokens granted synchronously by ``try_acquire``:
        #: they never touch the event queue and are recycled by the
        #: resource on release.
        self._fast = False

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._users: list[_Request] = []
        self._waiting: Deque[_Request] = deque()
        self._token_pool: list[_Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> _Request:
        """Acquire a slot; yield the returned event to wait for it."""
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def try_acquire(self) -> Optional[_Request]:
        """Grant a slot synchronously if one is free and nobody waits.

        The fast path for uncontended acquisition: no event-loop turn,
        no heap push — the returned token is already processed, so a
        process that yields it resumes immediately.  Hand it back with
        :meth:`release` (or a ``with`` block) exactly like a request.
        Returns ``None`` under contention; fall back to
        :meth:`request` then.
        """
        if self._waiting or len(self._users) >= self.capacity:
            return None
        pool = self._token_pool
        if pool:
            req = pool.pop()
        else:
            req = _Request(self)
            req._fast = True
        req._ok = True
        req._value = None
        req._processed = True
        req.callbacks = None
        self._users.append(req)
        return req

    def release(self, request: _Request) -> None:
        """Give a slot back and grant it to the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            # Releasing an ungranted request is a cancel.
            self._cancel(request)
            return
        if request._fast:
            request._value = PENDING
            request._ok = None
            request._processed = False
            self._token_pool.append(request)
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()

    def _cancel(self, request: _Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass
