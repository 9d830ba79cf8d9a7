"""Sharded cluster simulation with conservative time-window synchronization.

The cluster model has the shape Netherite and DataFlower exploit in real
engines: almost everything (container lifecycles, FaaStore traffic,
engine scheduling) is node-local, and only inter-node network traffic
couples nodes.  This module partitions a simulation into S *shards*,
each running its own :class:`~repro.sim.kernel.Environment` with the
unmodified kernel, and synchronizes them with classic conservative
(CMB-style) time windows:

- The **lookahead** ``L`` is the minimum latency of any cross-shard
  interaction (by default the network's propagation latency): a shard
  processing an event at time ``t`` can only influence another shard at
  ``t + L`` or later.
- Each round, the coordinator collects every *sender* shard's
  next-event time ``N_i`` and grants a window ``W = min(N_i) + L``.
  Every shard runs independently to ``W``; any message it emits carries
  a timestamp ``>= emit_time + L >= W``, so no shard can receive a
  message in its own past.  Shards that declare they will never send
  (``may_send = False``) do not constrain the window, which lets
  closed workloads run straight to drain in a single window.
- Cross-shard messages are exchanged **only at barriers**, with exact
  timestamps, and injected into the receiving shard through
  :meth:`Environment.schedule_at` — absolute-time scheduling, so the
  receiver fires the event at the bit-exact timestamp the sender named.

Two granularities are provided:

- **Node-granular** network sharding (:func:`run_network_sharded`):
  NICs are partitioned across shards, each shard runs the fluid network
  model in ``progress="analytic"`` mode (byte trajectories independent
  of the global event cadence — see ``network.py``), and flows whose
  endpoints land in different shards are simulated source-side against
  a proxy NIC with their accounting shipped at barriers.  When the
  partition keeps traffic shard-local (the aligned case), merged
  records are **bit-identical** to a single-process analytic run; when
  traffic crosses shards, the source shard sees only its own contention
  for the remote ingress link and results may diverge — the merge
  reports ``cross_flows`` / ``divergence_risk`` counters and
  ``strict=True`` refuses such partitions outright.
- **Cell-granular** workflow sharding (:func:`run_workflow_cells`):
  full engine runs (MasterSP or WorkerSP) cannot be split at node
  boundaries without losing exactness — the remote store's slot queue
  and the storage NIC are zero-lookahead global couplings — so whole
  independent scenarios ("cells") are partitioned across shard workers
  via the PR-1 :class:`~repro.parallel.ParallelRunner` machinery, with
  each cell's invocation-id range pinned by
  :func:`~repro.core.state.reset_invocation_ids` so records are
  bit-identical no matter how many shards ran them.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Optional, Sequence

from .kernel import Environment, SimulationError
from .network import MB, Network, NetworkConfig, TransferRecord

__all__ = [
    "ShardAPI",
    "ShardCoordinator",
    "partition_nodes",
    "run_network_single",
    "run_network_sharded",
    "run_workflow_cells",
    "make_workflow_cell",
    "DEFAULT_LOOKAHEAD",
]

_INF = float("inf")

# Matches NetworkConfig.latency — the one-way propagation latency is the
# soonest any cross-shard interaction can take effect.
DEFAULT_LOOKAHEAD = NetworkConfig.latency

# Every cell owns a disjoint invocation-id range this wide.
_CELL_ID_STRIDE = 10_000_000

# Same philosophy as ParallelRunner: environments that cannot fork/spawn
# (sandboxes, restricted CI runners) fall back to in-process execution
# rather than failing the run.
_FALLBACK_ERRORS = (OSError, ImportError, PermissionError)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_nodes(
    names: Sequence[str], shards: int, group_size: int = 1
) -> list[list[str]]:
    """Split ``names`` into ``shards`` contiguous, group-aligned parts.

    ``group_size`` is the coupling unit: nodes inside one group exchange
    traffic, so a group must never straddle a shard boundary (that is
    what keeps the aligned sharded run exact).  Whole groups are dealt
    to shards as evenly as possible, preserving order.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if group_size < 1:
        raise SimulationError(f"group_size must be >= 1, got {group_size}")
    names = list(names)
    groups = [names[i : i + group_size] for i in range(0, len(names), group_size)]
    if shards > len(groups):
        raise SimulationError(
            f"cannot split {len(groups)} group(s) of {group_size} node(s) "
            f"across {shards} shards"
        )
    per, extra = divmod(len(groups), shards)
    parts: list[list[str]] = []
    cursor = 0
    for index in range(shards):
        take = per + (1 if index < extra else 0)
        chunk = groups[cursor : cursor + take]
        cursor += take
        parts.append([name for group in chunk for name in group])
    return parts


# ---------------------------------------------------------------------------
# Shard programs and hosts
# ---------------------------------------------------------------------------

class ShardAPI:
    """Capabilities a shard program gets from its host.

    ``send`` queues a cross-shard message for barrier delivery.  The
    timestamp must respect the lookahead (``ts >= now + L``): that is
    the conservative contract that makes the coordinator's windows safe.
    """

    def __init__(self, env: Environment, shard_id: int, lookahead: float):
        self.env = env
        self.shard_id = shard_id
        self.lookahead = lookahead
        self._outbox: list[tuple[int, float, Any]] = []

    def send(self, dst_shard: int, payload: Any, ts: Optional[float] = None) -> None:
        earliest = self.env.now + self.lookahead
        if ts is None:
            ts = earliest
        elif ts < earliest:
            raise SimulationError(
                f"cross-shard send at t={self.env.now} with ts={ts} violates "
                f"lookahead {self.lookahead} (earliest legal ts {earliest})"
            )
        self._outbox.append((dst_shard, ts, payload))


class _ShardHost:
    """One shard: an environment, a program, and the window protocol.

    A *program* is any object built by ``factory(env, api, payload)``
    exposing: ``may_send`` (bool — will this shard ever emit cross-shard
    messages?), ``on_message(payload, ts)`` (delivery hook; call
    ``api.env.schedule_at(ts, ...)`` for simulated delivery, or apply
    immediately for accounting-only traffic), optionally
    ``pull_outbox()`` (extra messages beyond ``api.send``), and
    ``result()`` (picklable final state).
    """

    def __init__(
        self,
        shard_id: int,
        factory,
        payload,
        lookahead: float,
    ):
        self.env = Environment()
        self.api = ShardAPI(self.env, shard_id, lookahead)
        self.program = factory(self.env, self.api, payload)

    def hello(self) -> tuple[float, bool]:
        return (self.env.peek(), bool(getattr(self.program, "may_send", False)))

    def window(
        self, until: Optional[float], inbox: list[tuple[float, Any]]
    ) -> tuple[float, bool, list[tuple[int, float, Any]]]:
        for ts, payload in inbox:
            self.program.on_message(payload, ts)
        if until is None:
            self.env.run()
        else:
            self.env.run(until=until)
        outbox = list(self.api._outbox)
        self.api._outbox.clear()
        pull = getattr(self.program, "pull_outbox", None)
        if pull is not None:
            outbox.extend(pull())
        return (
            self.env.peek(),
            bool(getattr(self.program, "may_send", False)),
            outbox,
        )

    def finish(self) -> Any:
        return self.program.result()


def _shard_worker_main(conn, shard_id: int, factory, payload, lookahead: float):
    """Entry point of one shard worker process (module-level: spawn-safe)."""
    try:
        host = _ShardHost(shard_id, factory, payload, lookahead)
        conn.send(("ok", host.hello()))
    except BaseException as error:  # noqa: BLE001 - shipped to coordinator
        conn.send(("err", f"{type(error).__name__}: {error}"))
        return
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            return
        try:
            if cmd[0] == "window":
                conn.send(("ok", host.window(cmd[1], cmd[2])))
            elif cmd[0] == "finish":
                conn.send(("ok", host.finish()))
                return
            else:
                conn.send(("err", f"unknown command {cmd[0]!r}"))
                return
        except BaseException as error:  # noqa: BLE001
            conn.send(("err", f"{type(error).__name__}: {error}"))
            return


# ---------------------------------------------------------------------------
# Backends: in-process hosts or one worker process per shard
# ---------------------------------------------------------------------------

class _LocalBackend:
    name = "inproc"

    def __init__(self, specs: list[tuple], lookahead: float):
        self.hosts = [
            _ShardHost(i, factory, payload, lookahead)
            for i, (factory, payload) in enumerate(specs)
        ]

    def hello_all(self):
        return [host.hello() for host in self.hosts]

    def window_all(self, cmds):
        return [
            host.window(until, inbox)
            for host, (until, inbox) in zip(self.hosts, cmds)
        ]

    def finish_all(self):
        return [host.finish() for host in self.hosts]

    def close(self):
        self.hosts = []


class _ProcessBackend:
    name = "process"

    def __init__(self, specs: list[tuple], lookahead: float):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.procs = []
        self.conns = []
        try:
            for i, (factory, payload) in enumerate(specs):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(child, i, factory, payload, lookahead),
                    daemon=True,
                )
                proc.start()
                child.close()
                self.procs.append(proc)
                self.conns.append(parent)
        except BaseException:
            self.close()
            raise

    def _recv(self, conn):
        status, value = conn.recv()
        if status != "ok":
            raise SimulationError(f"shard worker failed: {value}")
        return value

    def hello_all(self):
        return [self._recv(conn) for conn in self.conns]

    def window_all(self, cmds):
        # Send every command before the first receive so the workers run
        # their windows concurrently.
        for conn, (until, inbox) in zip(self.conns, cmds):
            conn.send(("window", until, inbox))
        return [self._recv(conn) for conn in self.conns]

    def finish_all(self):
        for conn in self.conns:
            conn.send(("finish",))
        return [self._recv(conn) for conn in self.conns]

    def close(self):
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self.procs = []
        self.conns = []


class ShardCoordinator:
    """Drives S shard programs through conservative time windows.

    ``programs`` is a list of ``(factory, payload)`` pairs, one per
    shard; factories must be module-level callables (they cross the
    process boundary).  ``processes=False`` runs every shard in-process
    (same protocol, no concurrency) — the default for tests.
    """

    def __init__(
        self,
        programs: list[tuple],
        lookahead: float = DEFAULT_LOOKAHEAD,
        processes: bool = True,
        max_rounds: int = 1_000_000,
    ):
        if lookahead <= 0:
            raise SimulationError(f"lookahead must be > 0, got {lookahead}")
        if not programs:
            raise SimulationError("need at least one shard program")
        self.programs = list(programs)
        self.lookahead = float(lookahead)
        self.processes = processes
        self.max_rounds = max_rounds

    def run(self) -> dict:
        backend = None
        states = None
        if self.processes:
            try:
                backend = _ProcessBackend(self.programs, self.lookahead)
                states = backend.hello_all()
            except _FALLBACK_ERRORS:
                if backend is not None:
                    backend.close()
                backend = None
        if backend is None:
            backend = _LocalBackend(self.programs, self.lookahead)
            states = backend.hello_all()
        try:
            return self._drive(backend, states)
        finally:
            backend.close()

    def _drive(self, backend, states) -> dict:
        shard_count = len(self.programs)
        pending: list[list[tuple[float, Any]]] = [[] for _ in range(shard_count)]
        rounds = 0
        messages = 0
        while True:
            # Effective next event: the shard's own queue head or the
            # earliest undelivered message headed its way.
            eff = []
            for i, (peek, _may) in enumerate(states):
                nxt = peek
                for ts, _payload in pending[i]:
                    if ts < nxt:
                        nxt = ts
                eff.append(nxt)
            if all(nxt == _INF for nxt in eff):
                break
            senders = [i for i, (_peek, may) in enumerate(states) if may]
            if senders:
                horizon = min(eff[i] for i in senders)
                window = None if horizon == _INF else horizon + self.lookahead
            else:
                # Nobody will ever emit: every shard is causally closed
                # and can run to drain in one window.
                window = None
            inboxes = pending
            pending = [[] for _ in range(shard_count)]
            for inbox in inboxes:
                inbox.sort(key=lambda entry: entry[0])
            results = backend.window_all(
                [(window, inboxes[i]) for i in range(shard_count)]
            )
            rounds += 1
            if rounds > self.max_rounds:
                raise SimulationError(
                    f"shard barrier protocol exceeded {self.max_rounds} rounds"
                )
            states = []
            for peek, may, outbox in results:
                states.append((peek, may))
                for dst, ts, payload in outbox:
                    if not 0 <= dst < shard_count:
                        raise SimulationError(
                            f"cross-shard message to unknown shard {dst}"
                        )
                    pending[dst].append((ts, payload))
                    messages += 1
        outputs = backend.finish_all()
        return {
            "results": outputs,
            "rounds": rounds,
            "messages": messages,
            "backend": backend.name,
        }


# ---------------------------------------------------------------------------
# Node-granular network sharding
# ---------------------------------------------------------------------------

class _NetworkShardProgram:
    """Runs one shard of the fluid network model.

    The payload carries this shard's nodes, the full node→shard map,
    and the local slice of a transfer plan with *absolute* start times
    (``(at, src, dst, size)`` tuples).  Flows to nodes owned by other
    shards run against remote proxy NICs; their completion records ship
    at barriers as accounting-only messages (``may_send`` stays False —
    byte counters tolerate late delivery, so they never constrain the
    window).
    """

    def __init__(self, env: Environment, api: ShardAPI, payload: dict):
        self.env = env
        self.api = api
        net_kwargs = dict(payload.get("net_kwargs") or {})
        net_kwargs["progress"] = "analytic"
        self.net = Network(env, NetworkConfig(**net_kwargs))
        self.telemetry = None
        if payload.get("telemetry"):
            from ..obs.telemetry import MetricsRegistry

            # One registry per shard: network metrics are labeled by the
            # owning source node, so the per-shard label-sets are
            # disjoint and the merged snapshot is value-identical to a
            # single-process run's (ships at drain via result()).
            self.telemetry = MetricsRegistry(clock=lambda: env.now)
            self.net.telemetry = self.telemetry
        self.node_to_shard = payload["node_to_shard"]
        bandwidth = payload["bandwidth"]
        local = payload["local_nodes"]
        local_set = set(local)
        for name in local:
            self.net.attach(name, bandwidth)
        proxied: set[str] = set()
        for _at, _src, dst, _size in payload["plan"]:
            if dst not in local_set and dst not in proxied:
                proxied.add(dst)
                self.net.attach_remote(dst, bandwidth)
        nic = self.net.nic
        transfer = self.net.transfer
        for at, src, dst, size in payload["plan"]:
            event = env.schedule_at(at)
            event.callbacks.append(
                lambda _e, s=nic(src), d=nic(dst), z=size: transfer(s, d, z)
            )
        self.may_send = False

    def pull_outbox(self):
        box = self.net.cross_outbox
        if not box:
            return []
        out = [
            (
                self.node_to_shard[rec.dst],
                rec.finished_at,
                ("ingest", (rec.src, rec.dst, rec.size, rec.started_at,
                            rec.finished_at, rec.kind, rec.tag)),
            )
            for rec in box
        ]
        del box[:]
        return out

    def on_message(self, payload: Any, ts: float) -> None:
        kind, data = payload
        if kind == "ingest":
            # Accounting-only: applied immediately, not simulated — the
            # receiving shard's clock may already be past ``ts``.
            self.net.ingest_remote(TransferRecord(*data))
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown network shard message {kind!r}")

    def result(self) -> dict:
        net = self.net
        return {
            "records": [
                (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind, r.tag)
                for r in net.records
            ],
            "total_bytes": net.total_bytes,
            "nonlocal_bytes": net.nonlocal_bytes,
            "message_count": net.message_count,
            "flow_count": net.flow_count,
            "remote_ingest_count": net.remote_ingest_count,
            "nic_bytes": {
                name: (n.bytes_sent, n.bytes_received)
                for name, n in net.nics.items()
                if not n.remote
            },
            "now": self.env.now,
            "telemetry": (
                self.telemetry.snapshot()
                if self.telemetry is not None
                else None
            ),
        }


def _network_shard_factory(env, api, payload):
    return _NetworkShardProgram(env, api, payload)


def run_network_single(
    plan: Sequence[tuple],
    node_names: Sequence[str],
    bandwidth: float = 100 * MB,
    net_kwargs: Optional[dict] = None,
    telemetry: bool = False,
) -> dict:
    """Single-environment analytic reference for a shardable plan.

    Uses the same absolute-time scheduling as the sharded path, so a
    shard-aligned plan produces bit-identical records either way.
    """
    env = Environment()
    kwargs = dict(net_kwargs or {})
    kwargs["progress"] = "analytic"
    net = Network(env, NetworkConfig(**kwargs))
    registry = None
    if telemetry:
        from ..obs.telemetry import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: env.now)
        net.telemetry = registry
    for name in node_names:
        net.attach(name, bandwidth)
    nic = net.nic
    transfer = net.transfer
    for at, src, dst, size in plan:
        event = env.schedule_at(at)
        event.callbacks.append(
            lambda _e, s=nic(src), d=nic(dst), z=size: transfer(s, d, z)
        )
    env.run()
    return {
        "records": sorted(
            (r.src, r.dst, r.size, r.started_at, r.finished_at, r.kind, r.tag)
            for r in net.records
        ),
        "total_bytes": net.total_bytes,
        "nonlocal_bytes": net.nonlocal_bytes,
        "message_count": net.message_count,
        "flow_count": net.flow_count,
        "nic_bytes": {
            name: (n.bytes_sent, n.bytes_received) for name, n in net.nics.items()
        },
        "makespan": env.now,
        "shards": 1,
        "rounds": 0,
        "cross_messages": 0,
        "cross_flows": 0,
        "divergence_risk": 0,
        "backend": "single",
        "telemetry": registry.snapshot() if registry is not None else None,
    }


def _divergence_risk(records: list[tuple], node_to_shard: dict) -> int:
    """Count time-overlapping ingress sharings a source shard can't see.

    A cross-shard flow is simulated against a proxy of the remote
    ingress link; if another shard (including the owner) pushed traffic
    into the same node at an overlapping time, single-process
    water-filling would have coupled them and the sharded result may
    diverge.  Purely a post-merge diagnostic.
    """
    by_dst: dict[str, list[tuple[float, float, int]]] = {}
    for src, dst, _size, started, finished, kind, _tag in records:
        if kind != "flow":
            continue
        by_dst.setdefault(dst, []).append(
            (started, finished, node_to_shard[src])
        )
    risky = 0
    for dst, intervals in by_dst.items():
        shards_present = {shard for _s, _f, shard in intervals}
        if len(shards_present) < 2:
            continue
        intervals.sort()
        for i, (start_i, finish_i, shard_i) in enumerate(intervals):
            for start_j, finish_j, shard_j in intervals[i + 1 :]:
                if start_j >= finish_i:
                    break
                if shard_j != shard_i:
                    risky += 1
    return risky


def run_network_sharded(
    plan: Sequence[tuple],
    node_names: Sequence[str],
    shards: int,
    bandwidth: float = 100 * MB,
    group_size: int = 1,
    lookahead: Optional[float] = None,
    processes: bool = True,
    strict: bool = False,
    net_kwargs: Optional[dict] = None,
    telemetry: bool = False,
) -> dict:
    """Run a transfer plan across ``shards`` shard environments.

    ``plan`` entries are ``(at, src, dst, size)`` with absolute start
    times and node *names*.  ``shards=1`` short-circuits to
    :func:`run_network_single` — one environment, no coordinator, no
    worker processes.  ``strict=True`` raises if any flow crosses a
    shard boundary (the partition was supposed to be aligned).
    ``telemetry=True`` collects a per-shard metrics registry, ships the
    snapshots at drain, and merges them in shard order — value-identical
    to the single-process snapshot because every network metric is
    labeled by its owning source node.
    """
    if shards == 1:
        return run_network_single(
            plan,
            node_names,
            bandwidth,
            net_kwargs,
            telemetry=telemetry,
        )
    parts = partition_nodes(node_names, shards, group_size)
    node_to_shard = {
        name: index for index, part in enumerate(parts) for name in part
    }
    cfg = NetworkConfig(**dict(net_kwargs or {}, progress="analytic"))
    look = cfg.latency if lookahead is None else lookahead
    payloads = []
    for index, part in enumerate(parts):
        local_set = set(part)
        payloads.append(
            {
                "local_nodes": part,
                "plan": [entry for entry in plan if entry[1] in local_set],
                "bandwidth": bandwidth,
                "node_to_shard": node_to_shard,
                "net_kwargs": dict(net_kwargs or {}),
                "telemetry": telemetry,
            }
        )
    coordinator = ShardCoordinator(
        [(_network_shard_factory, payload) for payload in payloads],
        lookahead=look,
        processes=processes,
    )
    outcome = coordinator.run()
    records: list[tuple] = []
    totals = {
        "total_bytes": 0.0,
        "nonlocal_bytes": 0.0,
        "message_count": 0,
        "flow_count": 0,
    }
    nic_bytes: dict[str, tuple[float, float]] = {}
    makespan = 0.0
    ingests = 0
    for shard_result in outcome["results"]:
        records.extend(shard_result["records"])
        for key in totals:
            totals[key] += shard_result[key]
        nic_bytes.update(shard_result["nic_bytes"])
        ingests += shard_result["remote_ingest_count"]
        if shard_result["now"] > makespan:
            makespan = shard_result["now"]
    records.sort()
    cross = sum(
        1
        for src, dst, _size, _st, _fin, kind, _tag in records
        if kind == "flow" and node_to_shard[src] != node_to_shard[dst]
    )
    if strict and cross:
        raise SimulationError(
            f"strict sharded run saw {cross} cross-shard flow(s); "
            "partition is not aligned with the traffic (check group_size)"
        )
    return {
        "records": records,
        **totals,
        "nic_bytes": nic_bytes,
        "makespan": makespan,
        "shards": shards,
        "rounds": outcome["rounds"],
        "cross_messages": outcome["messages"],
        "cross_flows": cross,
        "remote_ingests": ingests,
        "divergence_risk": (
            _divergence_risk(records, node_to_shard) if cross else 0
        ),
        "backend": outcome["backend"],
        "partition": [list(part) for part in parts],
        "telemetry": _merged_shard_telemetry(outcome["results"]),
    }


def _merged_shard_telemetry(results: Sequence[dict]) -> Optional[dict]:
    """Merge per-shard telemetry snapshots in shard order."""
    snapshots = [r.get("telemetry") for r in results]
    if not any(s is not None for s in snapshots):
        return None
    from ..obs.telemetry import merge_snapshots

    return merge_snapshots(s for s in snapshots if s is not None)


# ---------------------------------------------------------------------------
# Cell-granular workflow sharding
# ---------------------------------------------------------------------------

def make_workflow_cell(
    workload,
    engine: str = "worker",
    seed: int = 13,
    invocations: int = 3,
    workers: int = 3,
    bandwidth_mb: float = 50.0,
    **extra,
) -> dict:
    """Describe one independent engine scenario (picklable spec).

    ``workload`` is a benchmark name (``"video-ffmpeg"``) or a tuple
    ``("layered_random", {"seed": 3, ...})`` naming a builder in
    ``repro.workloads.synthetic`` plus its kwargs.
    """
    return {
        "workload": workload,
        "engine": engine,
        "seed": seed,
        "invocations": invocations,
        "workers": workers,
        "bandwidth_mb": bandwidth_mb,
        **extra,
    }


def _build_cell_dag(workload):
    if isinstance(workload, (tuple, list)):
        kind = workload[0]
        kwargs = dict(workload[1]) if len(workload) > 1 else {}
        from ..workloads import synthetic

        try:
            builder = getattr(synthetic, kind)
        except AttributeError:
            raise SimulationError(f"unknown synthetic builder {kind!r}") from None
        return builder(**kwargs)
    from ..workloads.registry import build

    try:
        return build(workload)
    except KeyError:
        from pathlib import Path

        path = Path(workload)
        if path.exists():
            from ..wdl import load_workflow

            return load_workflow(path)
        raise SimulationError(
            f"{workload!r} is neither a benchmark name nor a WDL file"
        ) from None


def _run_workflow_cell(spec: dict) -> dict:
    """Run one cell (pool-shippable: module-level, lazy heavy imports)."""
    from ..core.state import reset_invocation_ids
    from ..runner import _SCALAR_FIELDS, run_workflow

    spec = dict(spec)
    cell_index = spec.pop("cell_index", 0)
    workload = spec.pop("workload")
    # Deterministic, disjoint id range per cell: records come out
    # identical no matter which shard worker ran the cell.
    reset_invocation_ids(cell_index * _CELL_ID_STRIDE + 1)
    dag = _build_cell_dag(workload)
    summary = run_workflow(dag, **spec)
    out = {field: summary[field] for field in _SCALAR_FIELDS}
    out.update(
        cell_index=cell_index,
        records=[
            (
                r.workflow,
                r.invocation_id,
                r.mode,
                r.started_at,
                r.finished_at,
                r.status,
                r.critical_path_exec,
                r.cold_starts,
                r.retries,
            )
            for r in summary["records"]
        ],
    )
    if summary.get("telemetry") is not None:
        # One fresh registry per cell: cell runs are bit-identical for
        # any shard count, so merging these snapshots in cell order
        # replays the exact same float additions regardless of which
        # worker ran which cell.
        out["telemetry"] = summary["telemetry"]
    return out


def run_workflow_cells(
    cells: Sequence[dict], shards: int = 1, processes: bool = True
) -> list[dict]:
    """Run independent workflow cells across ``shards`` worker processes.

    Results come back in cell order and are bit-identical for any shard
    count (each cell is causally closed; see module docstring for why
    engine runs shard at cell rather than node granularity).
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    from ..parallel import ParallelRunner

    specs = [dict(cell, cell_index=index) for index, cell in enumerate(cells)]
    jobs = shards if processes else 1
    return ParallelRunner(jobs).map(_run_workflow_cell, specs)
