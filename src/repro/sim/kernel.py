"""Discrete-event simulation kernel.

This module is the foundation of the cluster substrate: a small,
self-contained discrete-event engine in the style of SimPy.  Simulation
actors (workflow engines, containers, network flows, clients) are written
as Python generator functions that ``yield`` events; the
:class:`Environment` advances a virtual clock and resumes each process
when the event it waits on fires.

Example
-------
>>> env = Environment()
>>> def hello(env, log):
...     yield env.timeout(5.0)
...     log.append(env.now)
>>> log = []
>>> _ = env.process(hello(env, log))
>>> env.run()
>>> log
[5.0]
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

# CPython refcount introspection lets ``step()`` prove that a processed
# Timeout has no remaining referents and can be recycled.  On runtimes
# without ``sys.getrefcount`` the free-list simply stays empty.
_getrefcount = getattr(sys, "getrefcount", None)

# Upper bound on each per-environment free-list; beyond this, processed
# objects are left for the garbage collector as usual.
_POOL_CAP = 128

# Cancelled-timer count below which the queue is never compacted (see
# ``Environment._note_cancelled_timer``).
_COMPACTION_THRESHOLD = 64

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StopProcess",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party may attach a ``cause`` explaining why.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(Exception):
    """Raised to exit a process early with a return value."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


# Event lifecycle states.
PENDING = 0
TRIGGERED = 1  # scheduled on the event queue, not yet processed
PROCESSED = 2  # callbacks have run


class Event:
    """An occurrence at a point in simulated time that processes wait on.

    Events move through three states: *pending* (created, not fired),
    *triggered* (value set, callbacks scheduled), and *processed*
    (callbacks executed).  Waiting processes register themselves in
    :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: Any = None
        self._ok: Optional[bool] = None

    # -- inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """Whether the event succeeded.  ``None`` until triggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- firing ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        # _schedule inlined, as in Timeout.__init__: every grant, store
        # hand-off and awaited process exit comes through here.
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.env._schedule(self)
        return self

    def _process_callbacks(self) -> None:
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay", "_cancelled")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Born triggered: initialize every slot directly rather than
        # paying for Event.__init__ and then overwriting half of it.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._state = TRIGGERED
        self._value = value
        self._ok = True
        self._cancelled = False
        self.delay = delay
        # _schedule inlined: this is the pool-miss half of the hottest
        # allocation path in the kernel (timeout() handles the pool-hit
        # half), and the extra call level is measurable at millions of
        # timers per run.
        env._eid += 1
        heappush(env._queue, (env._now + delay, env._eid, self))

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Discard the timeout: its callbacks will never run.

        The queue entry becomes a *tombstone*: it is dropped unprocessed
        — no callback invocation, and the simulation clock never
        advances to its deadline.  The entry usually stays queued until
        its scheduled time surfaces, or is compacted out in bulk when
        tombstones come to dominate the queue; the observable
        simulation — clock, callback order, final drain time — is the
        same either way.  This is for timers that get superseded before
        they fire (the network's completion wake-up, a container's
        keep-alive expiry, an invocation's execution watchdog).  The
        caller is responsible for not cancelling a timeout some process
        still waits on (that process would never resume).  Cancelling
        twice is a no-op; cancelling an already-processed timeout is an
        error.
        """
        if self._state == PROCESSED:
            raise SimulationError("cannot cancel a processed timeout")
        if self._cancelled:
            return
        self._cancelled = True
        self.env._note_cancelled_timer()

    def _process_callbacks(self) -> None:
        if self._cancelled:
            # Dropped without running callbacks.  The state still moves
            # to PROCESSED (the lifecycle other kernel paths and the
            # free-list expect) and the flag resets so a pooled reuse
            # starts clean.
            self._cancelled = False
            self.env._cancelled_timers -= 1
            self._state = PROCESSED
            self.callbacks.clear()
            return
        # Event._process_callbacks inlined: timeouts are most of the
        # events dispatched.
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class _Resume:
    """Minimal queue entry that re-enters one callback without a full Event.

    The kernel schedules these wherever it used to allocate a throwaway
    trampoline :class:`Event` (process bootstrap, resuming a process that
    yielded an already-processed event, interrupt delivery).  A ``_Resume``
    never escapes the kernel, so ``step()`` recycles it through a
    per-environment free-list.  It quacks like a triggered event for the
    one consumer it has: ``Process._resume`` reads ``_ok`` and ``_value``.
    The inlined run loops call ``_callback`` directly; ``step()`` goes
    through :meth:`_process_callbacks`.  A recycled entry
    has both fields cleared, so the free-list keeps no process alive.
    """

    __slots__ = ("_callback", "_ok", "_value")

    def __init__(self, callback: Callable[["_Resume"], None], ok: bool, value: Any):
        self._callback = callback
        self._ok = ok
        self._value = value

    def _process_callbacks(self) -> None:
        self._callback(self)


class _ConditionValue(dict):
    """Mapping of event -> value for condition events (AllOf / AnyOf)."""


class _Condition(Event):
    """Base for composite events over several child events."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self._on_empty()
            return
        if len(self._events) == 1:
            # Single-event fast path: AllOf and AnyOf degenerate to the
            # same "mirror the one child" behavior, so skip the counting
            # machinery and the _collect_values scan entirely.
            event = self._events[0]
            if event.env is not env:
                raise SimulationError("events from different environments")
            if event.processed:
                self._mirror_single(event)
            else:
                event.callbacks.append(self._mirror_single)
            return
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _on_empty(self) -> None:
        """Hook for the zero-event case; AllOf succeeds, AnyOf raises."""
        self.succeed(_ConditionValue())

    def _mirror_single(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if event.ok:
            value = _ConditionValue()
            value[event] = event._value
            self.succeed(value)
        else:
            self.fail(event._value)

    def _collect_values(self) -> _ConditionValue:
        result = _ConditionValue()
        for event in self._events:
            # Timeouts are born triggered; only events whose callbacks ran
            # have actually occurred in simulated time.
            if event.processed and event.ok:
                result[event] = event._value
        return result

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once all child events have fired; fails fast on any failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed(self._collect_values())


class AnyOf(_Condition):
    """Fires as soon as any child event fires.

    An ``AnyOf`` over zero events is rejected: "any of nothing" can never
    fire, and silently succeeding (the ``AllOf`` vacuous-truth semantics)
    hides bugs where a waiter list was accidentally empty.
    """

    __slots__ = ()

    def _on_empty(self) -> None:
        raise SimulationError("AnyOf requires at least one event")

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self.succeed(self._collect_values())


class Process(Event):
    """A running generator coroutine.

    A process is itself an event: it triggers (with the generator's return
    value) when the generator exits, so processes can wait on each other.

    A process that exits normally while nothing waits on it is marked
    processed on the spot instead of queueing a completion event no
    callback would receive.  Skipping that queue entry only renumbers
    later entries, so the ``(when, eid)`` order of everything else is
    unchanged.  A waiter that arrives afterwards finds a processed
    event and resumes through a ``_Resume`` hop in the same timestep,
    as for any event that has already fired.  A failing process always
    queues its failure (see :meth:`_resume`).
    """

    __slots__ = ("_generator", "_target", "name", "_wake")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ):
        # Anything with send/throw runs (perfbench's layer proxy wraps
        # generators this way); real generators skip the duck check.
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise SimulationError(f"{generator!r} is not a generator")
        # Event.__init__ inlined: one process per function task.
        self.env = env
        self.callbacks = []
        self._state = PENDING
        self._value = None
        self._ok = None
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # The wake-up callback, bound once: every wait appends this same
        # object instead of a fresh bound method.  It is cleared when the
        # process exits or fails, so the process <-> method cycle never
        # outlives the process.
        self._wake: Optional[Callable[[Any], None]] = self._resume
        # Kick off the process at the current simulation time.
        env._schedule_resume(self._wake, True, None)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process currently waits on.
        wake = self._wake
        target = self._target
        if target is not None and wake in target.callbacks:
            target.callbacks.remove(wake)
        self._target = None
        self.env._schedule_resume(wake, False, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            # Stale wake-up: the process finished earlier in this
            # timestep (its awaited value was already queued when an
            # interrupt was scheduled, or two parties interrupted it).
            # Sending into the exhausted generator would re-trigger the
            # event; dropping the delivery is the correct semantics.
            return
        env = self.env
        env._active_process = self
        self._target = None
        try:
            if event._ok:
                next_target = self._generator.send(event._value)
            else:
                next_target = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._exit(stop.value)
            return
        except StopProcess as stop:
            env._active_process = None
            self._generator.close()
            self._exit(stop.value)
            return
        except Interrupt:
            # The process let an interrupt escape: treat as normal exit.
            env._active_process = None
            self._exit(None)
            return
        except BaseException as error:
            env._active_process = None
            self._wake = None
            # Drop this frame from the traceback: it holds ``self``, and
            # the failed process keeps ``error`` as its value, so leaving
            # it would make the failure a cycle only the cyclic GC frees.
            # The user's frames (from the generator down) remain.
            if error.__traceback__ is not None:
                error.__traceback__ = error.__traceback__.tb_next
            self.fail(error)
            if not self.callbacks:
                # Nobody is waiting for this process; surface the crash.
                env._crashed.append((self, error))
            return
        env._active_process = None
        if not isinstance(next_target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_target!r}, "
                "which is not an Event"
            )
        if next_target._state == PROCESSED:
            # The event already fired; resume immediately (same timestep)
            # through a pooled _Resume instead of a trampoline Event.
            env._schedule_resume(
                self._wake, next_target._ok, next_target._value
            )
        else:
            self._target = next_target
            next_target.callbacks.append(self._wake)

    def _exit(self, value: Any) -> None:
        """Finish with ``value``: queue the completion only for waiters."""
        self._wake = None
        if self.callbacks:
            self.succeed(value)
        else:
            self._ok = True
            self._value = value
            self._state = PROCESSED


class Environment:
    """Holds the event queue and the simulation clock.

    The queue is a binary heap (``heapq`` on a plain list) of
    ``(when, eid, event)`` entries.  ``eid`` is a counter bumped on
    every insert, so ``(when, eid)`` is a total order: events due at
    the same time fire in the order they were scheduled, and tuple
    comparison never reaches the event object.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_process",
        "_crashed",
        "_timeout_pool",
        "_resume_pool",
        "_cancelled_timers",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._crashed: list[tuple[Process, BaseException]] = []
        self._cancelled_timers = 0
        # The run loops hold a local alias of this list, so it is only
        # ever changed in place.
        self._queue: list[tuple[float, int, Event]] = []
        # Free-lists for the two hottest allocations: Timeout events
        # (recycled only once provably unreferenced) and kernel-internal
        # _Resume entries (never escape, always recycled).
        self._timeout_pool: list[Timeout] = []
        self._resume_pool: list[_Resume] = []

    # -- clock -------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def queued_events(self) -> int:
        """Entries queued, including cancelled-but-queued tombstones."""
        return len(self._queue)

    # -- event factories ----------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            event = pool.pop()
            event._state = TRIGGERED
            event._ok = True
            event._value = value
            event.delay = delay
            self._eid += 1
            heappush(self._queue, (self._now + delay, self._eid, event))
            return event
        return Timeout(self, delay, value)

    def schedule_at(self, when: float, value: Any = None) -> Timeout:
        """Schedule a timeout at an *absolute* simulation time.

        Unlike ``timeout(when - now)``, the queue entry carries ``when``
        exactly — no ``now + delay`` round-trip through floating point —
        so two environments that agree on ``when`` fire the event at
        bit-identical times regardless of what their local clocks read
        when it was scheduled.  The network schedules its flow-completion
        timers this way.  ``when`` must not be in the past.
        """
        when = float(when)
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when}, clock already at {self._now}"
            )
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event._state = TRIGGERED
            event._ok = True
            event._value = value
        else:
            event = Timeout.__new__(Timeout)
            event.env = self
            event.callbacks = []
            event._state = TRIGGERED
            event._value = value
            event._ok = True
            event._cancelled = False
        event.delay = when - self._now
        self._eid += 1
        heappush(self._queue, (when, self._eid, event))
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        heappush(self._queue, (self._now + delay, self._eid, event))

    def _schedule_resume(
        self, callback: Callable[[Any], None], ok: bool, value: Any
    ) -> None:
        """Schedule a bare callback re-entry at the current time.

        Replaces the old pattern of allocating a trampoline ``Event`` +
        callback list + succeed/fail just to hop through the queue.
        """
        pool = self._resume_pool
        if pool:
            entry = pool.pop()
            entry._callback = callback
            entry._ok = ok
            entry._value = value
        else:
            entry = _Resume(callback, ok, value)
        self._eid += 1
        heappush(self._queue, (self._now, self._eid, entry))

    def _note_cancelled_timer(self) -> None:
        """Bookkeeping hook for :meth:`Timeout.cancel`.

        Rebuilds the queue without tombstones once they reach
        ``_COMPACTION_THRESHOLD`` and make up at least half of it.
        Long-deadline watchdogs that are cancelled on every completion
        (one 60 s execution timeout per invocation, say) would otherwise
        accumulate for their full nominal delay and make the queue grow
        with throughput instead of with live work.
        """
        self._cancelled_timers += 1
        queue = self._queue
        count = self._cancelled_timers
        if count < _COMPACTION_THRESHOLD or count * 2 < len(queue):
            return
        keep = []
        for entry in queue:
            event = entry[2]
            if type(event) is Timeout and event._cancelled:
                self._retire_cancelled(event)
                self._recycle(event)
            else:
                keep.append(entry)
        heapify(keep)
        # In place: the run loops hold a local alias of this list.
        queue[:] = keep
        self._cancelled_timers = 0

    def _retire_cancelled(self, event: Timeout) -> None:
        """Retire a cancelled timer dropped without being dispatched.

        Same lifecycle a tombstone takes when the dispatch loop pops it:
        the state moves to PROCESSED (what other kernel paths and the
        free-list expect) and the flag resets so a pooled reuse starts
        clean.  The caller recycles separately, so the refcount proof
        in :meth:`_recycle` sees exactly the frames it expects.
        """
        event._cancelled = False
        event._state = PROCESSED
        event.callbacks.clear()
        self._cancelled_timers -= 1

    def peek(self) -> float:
        """Time of the next event that will actually fire, or ``inf``.

        Lazily-cancelled timeouts parked at the head of the queue are
        retired on the way: they would otherwise make ``peek`` report a
        time at which nothing observable happens, and make a drained
        environment look busy forever to a caller that waits for
        ``inf``.
        """
        queue = self._queue
        while queue:
            when, _, event = queue[0]
            if type(event) is Timeout and event._cancelled:
                heappop(queue)
                self._retire_cancelled(event)
                # Separate call so the refcount proof sees exactly one
                # caller frame holding the event (see _recycle).
                self._recycle(event)
                continue
            return when
        return float("inf")

    def step(self) -> None:
        """Process the next live event; raises if the queue is empty.

        Cancelled tombstones ahead of the next live event are retired
        silently, without advancing the clock.  If the queue held only
        tombstones they are all retired and the call returns without
        processing anything.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("no scheduled events")
        while True:
            if not queue:
                # The queue held only tombstones; all retired.
                return
            when, _, event = heappop(queue)
            if type(event) is Timeout and event._cancelled:
                self._retire_cancelled(event)
                self._recycle(event)
                continue
            break
        self._now = when
        event._process_callbacks()
        if self._crashed:
            self._raise_crashed()
        self._recycle(event)

    def _raise_crashed(self) -> None:
        process, error = self._crashed.pop()
        raise SimulationError(
            f"process {process.name!r} crashed at t={self._now}"
        ) from error

    def _recycle(self, event: Event) -> None:
        """Return a processed queue entry to its free-list when safe.

        ``_Resume`` entries are kernel-internal and always recyclable.  A
        ``Timeout`` is recycled only when the refcount proves this frame
        holds the sole remaining references (nobody kept the object, put
        it in a condition's ``_events``, or stored it in a result dict).
        """
        cls = type(event)
        if cls is _Resume:
            # Drop the stale callback and value: a pooled entry must not
            # keep a finished process (or an Interrupt) alive.
            event._callback = event._value = None
            if len(self._resume_pool) < _POOL_CAP:
                self._resume_pool.append(event)
        elif (
            cls is Timeout
            and _getrefcount is not None
            and len(self._timeout_pool) < _POOL_CAP
            and _getrefcount(event) == 3  # self._recycle arg + local + getrefcount arg
        ):
            self._timeout_pool.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a simulation time (run up to and including that
        time) or an :class:`Event` (run until it has been processed, then
        return its value).

        The clock is monotonic: a numeric ``until`` in the past (e.g. a
        second ``run(until=...)`` call with a smaller deadline after the
        first set ``now`` to its deadline) is a no-op — nothing is
        processed and ``now`` is left where it was, never rewound.

        Cancelled tombstones are dropped without running callbacks and
        without advancing the clock, so the observable clock trajectory
        (including the final ``now`` after a full drain) does not depend
        on when compaction ran.
        """
        queue = self._queue
        # The dispatch body below is step() inlined (including the
        # tombstone drop and free-list recycling) — the per-event
        # method-call overhead is measurable at millions of events per
        # run.  It also inlines the dispatch itself: a _Resume calls its
        # ``_callback`` directly and every other entry runs the body of
        # Event._process_callbacks here, one frame less per event.  Keep
        # the two loops below in sync with each other, with
        # step()/_recycle() and with the _process_callbacks methods.
        crashed = self._crashed
        resume_pool = self._resume_pool
        timeout_pool = self._timeout_pool
        if isinstance(until, Event):
            stop_event = until
            if not stop_event.processed:
                # run() is a waiter: a failure of the awaited event is
                # handled (re-raised below), not an unhandled crash.
                stop_event.callbacks.append(lambda _event: None)
            while stop_event._state != PROCESSED:
                if not queue:
                    raise SimulationError(
                        "event queue drained before the awaited event fired"
                    )
                when, _, event = heappop(queue)
                cls = type(event)
                if cls is Timeout and event._cancelled:
                    event._cancelled = False
                    event._state = PROCESSED
                    event.callbacks.clear()
                    self._cancelled_timers -= 1
                    if (
                        _getrefcount is not None
                        and len(timeout_pool) < _POOL_CAP
                        and _getrefcount(event) == 2  # loop local + getrefcount arg
                    ):
                        timeout_pool.append(event)
                    continue
                self._now = when
                if cls is _Resume:
                    event._callback(event)
                    if crashed:
                        self._raise_crashed()
                    event._callback = event._value = None
                    if len(resume_pool) < _POOL_CAP:
                        resume_pool.append(event)
                    continue
                # Event._process_callbacks inlined; tombstones were dropped
                # above, so a live Timeout takes the same path.
                event._state = PROCESSED
                callbacks = event.callbacks
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
                if crashed:
                    self._raise_crashed()
                if (
                    cls is Timeout
                    and _getrefcount is not None
                    and len(timeout_pool) < _POOL_CAP
                ):
                    # Drop the loop's own references first: the proof must
                    # see only the loop local and the argument, as in step().
                    callbacks = callback = None
                    if _getrefcount(event) == 2:  # loop local + getrefcount arg
                        timeout_pool.append(event)
            if stop_event.ok:
                return stop_event._value
            raise stop_event._value
        deadline = float("inf") if until is None else float(until)
        if deadline < self._now:
            # Deadline already in the past: never rewind the clock.
            return None
        while queue and queue[0][0] <= deadline:
            when, _, event = heappop(queue)
            cls = type(event)
            if cls is Timeout and event._cancelled:
                event._cancelled = False
                event._state = PROCESSED
                event.callbacks.clear()
                self._cancelled_timers -= 1
                if (
                    _getrefcount is not None
                    and len(timeout_pool) < _POOL_CAP
                    and _getrefcount(event) == 2  # loop local + getrefcount arg
                ):
                    timeout_pool.append(event)
                continue
            self._now = when
            if cls is _Resume:
                event._callback(event)
                if crashed:
                    self._raise_crashed()
                event._callback = event._value = None
                if len(resume_pool) < _POOL_CAP:
                    resume_pool.append(event)
                continue
            # Event._process_callbacks inlined; tombstones were dropped
            # above, so a live Timeout takes the same path.
            event._state = PROCESSED
            callbacks = event.callbacks
            event.callbacks = []
            for callback in callbacks:
                callback(event)
            if crashed:
                self._raise_crashed()
            if (
                cls is Timeout
                and _getrefcount is not None
                and len(timeout_pool) < _POOL_CAP
            ):
                # Drop the loop's own references first: the proof must
                # see only the loop local and the argument, as in step().
                callbacks = callback = None
                if _getrefcount(event) == 2:  # loop local + getrefcount arg
                    timeout_pool.append(event)
        if deadline != float("inf"):
            self._now = deadline
        return None
