"""Per-layer tracing: wrap each layer's public entry points, from outside.

The program is not edited.  :class:`LayerTracer` patches the public
entry points of each layer on their classes (so every instance built
afterwards goes through the wrapper) and restores the originals on
:meth:`LayerTracer.uninstall`.  It must be installed before the cluster
and the workflow system are constructed.

Host time is attributed with a stack: a wrapped call that runs while
another wrapped call is active is the caller's child, and its elapsed
time is subtracted from the caller's, so each layer gets *self* time.
Generator entry points (``invoke``, ``run_function``, ``execute``,
``save_output``/``fetch_input``/``eager_push``) are timed per resume —
each ``send``/``throw``/``close`` into the generator — never at
generator creation, which does no work.  Whatever host time is left
over inside ``Environment.run`` is the kernel's own: the event loop and
event callbacks such as fluid-network rebalancing on flow completion.

The wrappers never create, schedule or hold simulation events, so a
traced run must produce exactly the same simulated outcome stream as an
untraced one; the benchmark asserts that.
"""

from __future__ import annotations

from time import perf_counter

from repro.core import FaaSFlowSystem, FunctionRuntime, GraphScheduler, WorkerEngine
from repro.core.faastore import FaaStorePolicy
from repro.sim import Environment, Network
from repro.sim.container import ContainerPool
from repro.sim.storage import LocalMemStore

__all__ = ["LayerTracer", "LAYERS"]

# Layers that accumulate host self time, in report order.
LAYERS = ("engine", "runtime", "faastore", "network", "container", "scheduler")


class _Timed:
    """A generator proxy that charges each resume to one layer.

    Forwards ``send``/``throw``/``close`` and ``__name__`` unchanged, so
    the kernel's ``Process`` and ``yield from`` delegation treat it as
    the generator it wraps.  ``on_return`` sees the generator's return
    value once, when it finishes.
    """

    __slots__ = ("_gen", "_tracer", "_layer", "_on_return", "__name__")

    def __init__(self, gen, tracer, layer, on_return=None):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer
        self._on_return = on_return
        self.__name__ = gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.send(value)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            tracer.leave()

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.throw(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            tracer.leave()

    def close(self):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            self._gen.close()
        finally:
            tracer.leave()


class LayerTracer:
    """Counts, simulated durations and host self time per layer."""

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        # Each frame: [layer, start, time spent in child frames].
        self._stack: list[list] = []
        self._saved: list[tuple[type, str, object]] = []
        self.run_s = 0.0

    # -- host-time stack -------------------------------------------------
    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def current_layer(self) -> str:
        return self._stack[-1][0] if self._stack else "kernel"

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- patching --------------------------------------------------------
    def _patch(self, cls: type, name: str, make) -> None:
        original = cls.__dict__[name]
        self._saved.append((cls, name, original))
        setattr(cls, name, make(original))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("LayerTracer is already installed")
        tracer = self

        def generator_entry(layer, counter, on_return=None):
            def make(original):
                def wrapper(*args, **kwargs):
                    tracer.count(counter)
                    return _Timed(original(*args, **kwargs), tracer, layer, on_return)

                wrapper.__name__ = original.__name__
                return wrapper

            return make

        # core.worker_engine / core.dataflow_engine / core.state: the
        # client-side invocation lifecycle and each function trigger.
        self._patch(FaaSFlowSystem, "invoke", generator_entry("engine", "client.arrivals"))
        self._patch(
            WorkerEngine, "run_function",
            generator_entry("engine", "engine.functions_triggered"),
        )

        # core.runtime: one function task, containers and data included.
        def on_execute(result) -> None:
            if result is not None:
                tracer.sample("runtime.sim_execute_s", result.duration)
                tracer.count("runtime.retries", result.retries)

        self._patch(
            FunctionRuntime, "execute",
            generator_entry("runtime", "runtime.executions", on_execute),
        )

        # core.faastore: the data plane's three operations.
        self._patch(FaaStorePolicy, "save_output", generator_entry("faastore", "faastore.saves"))
        self._patch(FaaStorePolicy, "fetch_input", generator_entry("faastore", "faastore.fetches"))
        self._patch(FaaStorePolicy, "eager_push", generator_entry("faastore", "faastore.pushes"))

        # sim.storage: a refused local put is a FaaStore spill.
        def make_try_put(original):
            def try_put(store, key, size):
                done = original(store, key, size)
                if done is None:
                    tracer.count("faastore.spills")
                return done

            return try_put

        self._patch(LocalMemStore, "try_put", make_try_put)

        # sim.network: bulk transfers and latency-bound messages.  A
        # message sent from inside FaaStore is an eager data push; any
        # other message is control-plane traffic.
        def make_transfer(original):
            def transfer(network, src, dst, size, tag=""):
                tracer.count("network.transfers")
                tracer.count("network.bytes", size)
                tracer.enter("network")
                try:
                    return original(network, src, dst, size, tag)
                finally:
                    tracer.leave()

            return transfer

        def make_message(original):
            def message(network, src, dst, *args, **kwargs):
                if tracer.current_layer() == "faastore":
                    size = args[0] if args else kwargs["size"]
                    tracer.count("network.transfers")
                    tracer.count("network.bytes", size)
                else:
                    tracer.count("engine.control_messages")
                tracer.enter("network")
                try:
                    return original(network, src, dst, *args, **kwargs)
                finally:
                    tracer.leave()

            return message

        self._patch(Network, "transfer", make_transfer)
        self._patch(Network, "message", make_message)

        # sim.container: warm reuse, cold start, or a queued request.
        def make_acquire(original):
            def acquire(pool, function, version=0):
                tracer.count("container.acquires")
                cold_before = pool.cold_starts
                asked = pool.env.now
                tracer.enter("container")
                try:
                    event = original(pool, function, version)
                finally:
                    tracer.leave()
                cold = pool.cold_starts != cold_before
                if cold:
                    tracer.count("container.cold_starts")
                if event.triggered:
                    tracer.sample("container.sim_queue_wait_s", 0.0)
                else:

                    def ready(_event, pool=pool, asked=asked, cold=cold):
                        waited = pool.env.now - asked
                        if cold:
                            tracer.sample("container.sim_cold_start_s", waited)
                            tracer.sample("container.sim_queue_wait_s", 0.0)
                        else:
                            tracer.sample("container.sim_queue_wait_s", waited)

                    event.callbacks.append(ready)
                return event

            return acquire

        self._patch(ContainerPool, "acquire", make_acquire)

        # core.scheduler / core.grouping: partitioning at deploy time.
        def make_schedule(original):
            def schedule(scheduler, dag, *args, **kwargs):
                tracer.count("scheduler.schedule_calls")
                tracer.enter("scheduler")
                try:
                    placement, quotas, report = original(scheduler, dag, *args, **kwargs)
                finally:
                    tracer.leave()
                if report.grouping is not None:
                    tracer.count("scheduler.functions", report.function_count)
                    tracer.count(
                        "scheduler.localized",
                        len(report.grouping.localized_functions),
                    )
                return placement, quotas, report

            return schedule

        self._patch(GraphScheduler, "schedule", make_schedule)

        # sim.kernel: total host time inside the event loop.
        def make_run(original):
            def run(env, until=None):
                started = perf_counter()
                try:
                    return original(env, until)
                finally:
                    tracer.run_s += perf_counter() - started

            return run

        self._patch(Environment, "run", make_run)
        return self

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------
    def kernel_self_s(self) -> float:
        """Host time in ``Environment.run`` not charged to any layer.

        Scheduler time is excluded: partitioning runs at deploy time,
        outside the event loop.
        """
        inside = sum(v for k, v in self.self_s.items() if k != "scheduler")
        return self.run_s - inside
