"""Per-node CPU and memory accounting.

Each simulated node owns a :class:`CPUAllocator` (a counted core resource
that also integrates busy-core time, so experiments can report average
CPU usage like the paper's §5.6-5.7) and a :class:`MemoryAccount`
(non-blocking reservation ledger with a high-water mark, used both for
container provisioning and for FaaStore's reclaimed memory pool).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kernel import Environment, SimulationError
from .sync import Resource

__all__ = ["CPUAllocator", "MemoryAccount", "UsageSampler", "OutOfMemoryError"]


class OutOfMemoryError(SimulationError):
    """A memory reservation exceeded the node's capacity."""


class UsageSampler:
    """Integrates a piecewise-constant usage signal over simulated time."""

    def __init__(self, env: Environment, initial: float = 0.0):
        self.env = env
        self._value = float(initial)
        self._last_change = env.now
        self._area = 0.0
        self._peak = float(initial)

    @property
    def value(self) -> float:
        return self._value

    @property
    def peak(self) -> float:
        return self._peak

    def set(self, value: float) -> None:
        now = self.env.now
        self._area += self._value * (now - self._last_change)
        self._last_change = now
        self._value = value = float(value)
        if value > self._peak:
            self._peak = value

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def average(self) -> float:
        """Time-weighted average of the signal from time 0 to now."""
        now = self.env.now
        if now <= 0:
            return self._value
        return (self._area + self._value * (now - self._last_change)) / now


class CPUAllocator:
    """A node's cores: counted acquisition plus busy-time integration."""

    def __init__(self, env: Environment, cores: int):
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self.env = env
        self.cores = cores
        self._resource = Resource(env, capacity=cores)
        self.usage = UsageSampler(env)

    def request(self, cores: int = 1):
        """Event granting ``cores`` cores; pair with :meth:`release`."""
        req = self._resource.request(cores)
        req.callbacks.append(self._on_grant)
        return req

    def _on_grant(self, request) -> None:
        self.usage.add(request.amount)

    def release(self, request) -> None:
        self._resource.release(request)
        self.usage.add(-request.amount)

    def cancel(self, request) -> None:
        """Withdraw a request safely whether or not it was granted.

        Interrupted waiters must not call :meth:`release` directly: the
        usage integral is only credited by the grant callback, so
        releasing an ungranted request would drive it negative.
        """
        if self._resource.holds(request):
            self.release(request)
        else:
            request.cancel()

    @property
    def busy(self) -> int:
        return self._resource.in_use

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def average_usage(self) -> float:
        """Average busy cores over [0, now]."""
        return self.usage.average()


@dataclass
class _Reservation:
    tag: str
    amount: float


class MemoryAccount:
    """Non-blocking memory reservation ledger for one node.

    Reservations are tagged so experiments can decompose usage
    (containers vs. engine vs. FaaStore pool).  Over-reserving raises
    :class:`OutOfMemoryError` — the failure mode FaaStore's pessimistic
    quota (Eq. 1-2) is designed to avoid.
    """

    def __init__(self, env: Environment, capacity: float):
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self._reservations: dict[int, _Reservation] = {}
        self._next_id = 0
        self.usage = UsageSampler(env)

    @property
    def reserved(self) -> float:
        return self.usage.value

    @property
    def available(self) -> float:
        return self.capacity - self.reserved

    def reserve(self, amount: float, tag: str = "") -> int:
        """Reserve ``amount`` bytes; returns a handle for :meth:`free`."""
        if amount < 0:
            raise SimulationError(f"negative reservation {amount}")
        if self.reserved + amount > self.capacity + 1e-6:
            raise OutOfMemoryError(
                f"reserving {amount / (1024 * 1024):.1f} MB would exceed node "
                f"capacity ({self.reserved / (1024 * 1024):.1f}"
                f"/{self.capacity / (1024 * 1024):.1f} MB reserved, tag={tag!r})"
            )
        self._next_id += 1
        handle = self._next_id
        self._reservations[handle] = _Reservation(tag, float(amount))
        self.usage.add(amount)
        return handle

    def resize(self, handle: int, new_amount: float) -> None:
        """Grow or shrink an existing reservation (cgroup limit update)."""
        reservation = self._reservations.get(handle)
        if reservation is None:
            raise SimulationError(f"unknown reservation handle {handle}")
        delta = new_amount - reservation.amount
        if delta > 0 and self.reserved + delta > self.capacity + 1e-6:
            raise OutOfMemoryError(
                f"resize by +{delta / (1024 * 1024):.1f} MB exceeds capacity"
            )
        reservation.amount = float(new_amount)
        self.usage.add(delta)

    def free(self, handle: int) -> None:
        reservation = self._reservations.pop(handle, None)
        if reservation is None:
            raise SimulationError(f"unknown reservation handle {handle}")
        self.usage.add(-reservation.amount)

    def reserved_by_tag(self, tag: str) -> float:
        return sum(
            r.amount for r in self._reservations.values() if r.tag == tag
        )

    def average_usage(self) -> float:
        return self.usage.average()
