"""Synchronization primitives built on the simulation kernel.

Provides the queueing abstractions the cluster model needs:

- :class:`Resource` — a capacity-limited resource with FIFO request
  queueing (CPU cores, concurrent-connection limits).
- :class:`Store` — an unbounded or bounded FIFO object queue
  (task queues that containers pull work from).
- :class:`Level` — a continuous quantity that can be drawn down and
  refilled (memory pools, storage quotas).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .kernel import PENDING, Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Level"]


class _Request(Event):
    """Pending acquisition of one resource slot.

    Usable as a context manager so callers release even on interrupt::

        with resource.request() as req:
            yield req
            ...

    ``granted`` is true from the grant until the release.  The grant
    fires with no value: a request that was its own value would be a
    reference cycle only the cyclic garbage collector could free.
    """

    __slots__ = ("resource", "amount", "granted")

    def __init__(self, resource: "Resource", amount: int):
        # Event.__init__ inlined: one request per CPU slot or lock taken.
        self.env = resource.env
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._ok = None
        self.resource = resource
        self.amount = amount
        self.granted = False

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with FIFO granting.

    >>> env = Environment()
    >>> cpu = Resource(env, capacity=2)
    """

    def __init__(self, env: Environment, capacity: int):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[_Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, amount: int = 1) -> _Request:
        """Return an event that fires when ``amount`` slots are granted."""
        if amount < 1 or amount > self.capacity:
            raise SimulationError(
                f"request of {amount} outside [1, {self.capacity}]"
            )
        req = _Request(self, amount)
        if not self._waiting and self._in_use + amount <= self.capacity:
            # Nothing queued ahead and room now: the grant append +
            # _grant() would make, without the queue round trip.
            self._in_use += amount
            req.granted = True
            req.succeed()
        else:
            self._waiting.append(req)
            self._grant()
        return req

    def holds(self, request: _Request) -> bool:
        """Whether ``request`` has been granted and not yet released."""
        return request.granted

    def release(self, request: _Request) -> None:
        """Return the slots held by ``request`` (idempotent)."""
        if request.granted:
            request.granted = False
            self._in_use -= request.amount
            if self._waiting:
                self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request: _Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        waiting = self._waiting
        while waiting:
            head = waiting[0]
            if self._in_use + head.amount > self.capacity:
                break
            waiting.popleft()
            self._in_use += head.amount
            head.granted = True
            head.succeed()


class _StoreGet(Event):
    __slots__ = ()


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any):
        super().__init__(env)
        self.item = item


class Store:
    """FIFO object queue with blocking ``get`` and (optionally) ``put``."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[_StoreGet] = deque()
        self._putters: deque[_StorePut] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(self._items)

    def put(self, item: Any) -> _StorePut:
        """Return an event that fires once ``item`` is enqueued."""
        put = _StorePut(self.env, item)
        self._putters.append(put)
        self._settle()
        return put

    def get(self) -> _StoreGet:
        """Return an event that fires with the next item."""
        get = _StoreGet(self.env)
        self._getters.append(get)
        self._settle()
        return get

    def cancel_get(self, get: _StoreGet) -> None:
        try:
            self._getters.remove(get)
        except ValueError:
            pass

    def _settle(self) -> None:
        moved = True
        while moved:
            moved = False
            while self._putters and (
                self.capacity is None or len(self._items) < self.capacity
            ):
                put = self._putters.popleft()
                self._items.append(put.item)
                put.succeed()
                moved = True
            while self._getters and self._items:
                get = self._getters.popleft()
                get.succeed(self._items.popleft())
                moved = True


class _LevelGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class Level:
    """A continuous quantity with blocking draw-down.

    ``get`` blocks until the requested amount is available; ``put`` never
    blocks but cannot exceed ``capacity``.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        initial: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        if initial < 0 or initial > capacity:
            raise SimulationError(
                f"initial level {initial} outside [0, {capacity}]"
            )
        self.env = env
        self.capacity = capacity
        self._level = float(initial)
        self._getters: deque[_LevelGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> None:
        if amount < 0:
            raise SimulationError(f"cannot put negative amount {amount}")
        if self._level + amount > self.capacity + 1e-9:
            raise SimulationError(
                f"put of {amount} exceeds capacity {self.capacity} "
                f"(level {self._level})"
            )
        self._level = min(self.capacity, self._level + amount)
        self._settle()

    def get(self, amount: float) -> _LevelGet:
        if amount < 0:
            raise SimulationError(f"cannot get negative amount {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"get of {amount} can never be satisfied "
                f"(capacity {self.capacity})"
            )
        get = _LevelGet(self.env, amount)
        self._getters.append(get)
        self._settle()
        return get

    def try_get(self, amount: float) -> bool:
        """Non-blocking draw; returns whether it succeeded."""
        if amount < 0:
            raise SimulationError(f"cannot get negative amount {amount}")
        if self._getters or amount > self._level + 1e-9:
            return False
        self._level -= amount
        return True

    def _settle(self) -> None:
        while self._getters and self._getters[0].amount <= self._level + 1e-9:
            get = self._getters.popleft()
            self._level -= get.amount
            get.succeed(get.amount)
