"""Process groups and functional collectives over the simulated cluster.

The design mirrors ``torch.distributed``: a :class:`CommWorld` owns all the
ranks; :class:`ProcessGroup` objects are subsets of ranks over which
collectives run.  Because everything lives in one Python process, a
collective is implemented as an actual data shuffle between per-rank slots,
which makes the MoE dispatch/combine pipelines exactly testable.  Every call
also asks the :class:`~repro.cluster.network.NetworkModel` for a time
estimate and records it in :class:`CommStats`, which is what the performance
benchmarks read out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.device import SimDevice
from repro.cluster.network import NetworkModel
from repro.cluster.topology import LinkTier, Topology
from repro.config.hardware import SystemSpec, frontier_system
from repro.obs import tracer as obs
from repro.obs.metrics import MetricsRegistry


@dataclass
class CommEvent:
    """One recorded collective call."""

    op: str
    group_size: int
    total_bytes: float
    seconds: float
    bottleneck_tier: LinkTier
    bytes_by_tier: dict = field(default_factory=dict)
    #: global ranks that took part (what places the event on per-rank tracks).
    ranks: tuple = ()


@dataclass
class CommStats:
    """Accumulated communication statistics.

    Recording an event also annotates the enclosing ``comm``-category obs
    span (op, bytes, modeled seconds, per-tier byte split) and, when a
    :class:`~repro.obs.metrics.MetricsRegistry` is attached
    (``stats.metrics = registry``), publishes it as counters —
    ``comm_calls{op}``, ``comm_modeled_seconds{op}``,
    ``comm_bytes{op, tier}``.  Executed collectives and the events the
    plan cache's fused executor prices from a plan's schedule go through
    the same call, so neither view undercounts fused steps.
    """

    events: list[CommEvent] = field(default_factory=list)
    #: optional metrics sink; events are published to it as they record.
    metrics: MetricsRegistry | None = None

    def record(self, event: CommEvent) -> None:
        """Append one collective's record (and publish it, if wired)."""
        self.events.append(event)
        span = obs.current()
        if span is not None and span.category == "comm":
            span.set(
                op=event.op,
                bytes=event.total_bytes,
                modeled_seconds=event.seconds,
                bottleneck_tier=event.bottleneck_tier,
                bytes_by_tier={
                    getattr(tier, "name", tier): float(nbytes)
                    for tier, nbytes in event.bytes_by_tier.items()
                },
            )
        registry = self.metrics
        if registry is not None:
            registry.counter("comm_calls", "op").labels(op=event.op).inc()
            registry.counter("comm_modeled_seconds", "op").labels(op=event.op).inc(
                event.seconds
            )
            by_tier = registry.counter("comm_bytes", "op", "tier")
            for tier, nbytes in event.bytes_by_tier.items():
                by_tier.labels(op=event.op, tier=getattr(tier, "name", tier)).inc(
                    float(nbytes)
                )

    def merge(self, other: "CommStats") -> "CommStats":
        """A new window holding this window's events followed by ``other``'s.

        Summaries over the merged window (total seconds/bytes, per-op and
        per-tier groupings) equal the sums of the two inputs' summaries —
        the aggregation property the unit tests pin down.  The merged
        window has no metrics sink (its inputs already published).
        """
        return CommStats(events=list(self.events) + list(other.events))

    @property
    def total_seconds(self) -> float:
        """Modeled seconds across every recorded collective."""
        return sum(e.seconds for e in self.events)

    @property
    def total_bytes(self) -> float:
        """Bytes moved across every recorded collective."""
        return sum(e.total_bytes for e in self.events)

    def seconds_by_op(self) -> dict[str, float]:
        """Modeled seconds grouped by collective op name."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.op] = out.get(e.op, 0.0) + e.seconds
        return out

    def bytes_by_tier(self) -> dict[LinkTier, float]:
        """Bytes moved grouped by the link tier they crossed."""
        out: dict[LinkTier, float] = {}
        for e in self.events:
            for tier, nbytes in e.bytes_by_tier.items():
                out[tier] = out.get(tier, 0.0) + nbytes
        return out

    def clear(self) -> None:
        """Drop every recorded event (fresh accounting window)."""
        self.events.clear()


class CommWorld:
    """The global communicator over a simulated system.

    Parameters
    ----------
    system:
        Hardware description (defaults to a Frontier partition).
    num_ranks:
        Number of simulated ranks.
    seed:
        Seed for the congestion sampler.
    track_memory:
        If True, collectives charge their receive buffers to the destination
        rank's :class:`SimDevice` memory tracker.
    """

    def __init__(
        self,
        num_ranks: int,
        system: SystemSpec | None = None,
        *,
        seed: int | None = 0,
        track_memory: bool = False,
    ):
        if system is None:
            needed_nodes = max(1, -(-num_ranks // 8))
            system = frontier_system(num_nodes=needed_nodes)
        self.system = system
        self.topology = Topology(system, num_ranks)
        self.network = NetworkModel(self.topology, seed=seed)
        self.num_ranks = num_ranks
        self.devices = [SimDevice(r, system.node.gpu) for r in range(num_ranks)]
        self.stats = CommStats()
        self.track_memory = track_memory

    def group(self, ranks) -> "ProcessGroup":
        """Create a process group over the given global ranks."""
        return ProcessGroup(self, list(ranks))

    def world_group(self) -> "ProcessGroup":
        """The group containing every rank."""
        return self.group(range(self.num_ranks))

    def node_group(self, node: int) -> "ProcessGroup":
        """The group of all ranks on one node."""
        return self.group(self.topology.ranks_on_node(node))


def _comm_span(default_op: str):
    """Wrap a recording collective in a ``category="comm"`` span.

    The span is named after the effective ``op_name`` (callers relabel
    collectives — e.g. hierarchical dispatch stages — via that kwarg) and
    opens with the group's global ranks attached, which is what lets the
    Chrome-trace exporter place the event on every participating rank's
    track.  ``CommStats.record`` fills in bytes/tier attributes from inside
    the span.  Only the primitives that record an event are wrapped;
    delegating wrappers (``alltoall_single`` → ``alltoall``) inherit the
    primitive's span, so each collective traces exactly once.
    """

    def wrap(fn):
        """Decorate ``fn`` so each call runs inside its comm span."""

        @functools.wraps(fn)
        def inner(self, *args, op_name: str = default_op, **kwargs):
            """Run the collective inside an ``op_name`` comm span."""
            with obs.span(op_name, "comm", ranks=self.ranks):
                return fn(self, *args, op_name=op_name, **kwargs)

        return inner

    return wrap


class ProcessGroup:
    """A subset of ranks with functional + costed collectives.

    Collectives take *lists indexed by group-local rank* and return lists in
    the same convention.  For example ``alltoall(chunks)`` expects
    ``chunks[i][j]`` = the array local rank ``i`` sends to local rank ``j``
    and returns ``out`` with ``out[j][i] = chunks[i][j]``.
    """

    def __init__(self, world: CommWorld, ranks: list[int]):
        if len(ranks) == 0:
            raise ValueError("process group must contain at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in process group")
        for r in ranks:
            if not (0 <= r < world.num_ranks):
                raise ValueError(f"rank {r} out of range")
        self.world = world
        self.ranks = list(ranks)
        self.size = len(ranks)
        self._global = np.asarray(ranks, dtype=np.int64)

    # ------------------------------------------------------------------
    def _event(self, op: str, traffic: np.ndarray, estimate, ranks) -> CommEvent:
        return CommEvent(
            op=op,
            group_size=len(ranks),
            total_bytes=float(np.asarray(traffic).sum()),
            seconds=estimate.seconds,
            bottleneck_tier=estimate.bottleneck_tier,
            bytes_by_tier=dict(estimate.bytes_by_tier),
            ranks=tuple(ranks),
        )

    def _record(self, op: str, traffic: np.ndarray, estimate) -> None:
        self.world.stats.record(self._event(op, traffic, estimate, self.ranks))

    def account_alltoallv(
        self,
        splits_mat: np.ndarray,
        row_bytes,
        *,
        op_name: str = "alltoallv",
        members: np.ndarray | None = None,
    ) -> CommEvent:
        """Price one planned uneven all-to-all from its splits alone.

        ``splits_mat[i, j]`` rows of ``row_bytes`` bytes (a scalar, or one
        value per sender) go from participant ``i`` to participant ``j``;
        the participants are this group's ranks, or the group-local
        ``members`` of a sub-communicator.  No data moves and nothing is
        recorded: the returned :class:`CommEvent` is exactly what
        :meth:`alltoallv_planned` records for the same splits, which is
        what lets a plan's comm cost be derived before it executes.
        """
        ranks = self._global if members is None else self._global[members]
        traffic = splits_mat * np.asarray(row_bytes, dtype=np.float64).reshape(-1, 1)
        estimate = self.world.network.alltoall_time(traffic, ranks)
        return self._event(op_name, traffic, estimate, ranks.tolist())

    def _charge_memory(self, local_rank: int, tag: str, arrays) -> None:
        if not self.world.track_memory:
            return
        device = self.world.devices[self.ranks[local_rank]]
        nbytes = sum(int(a.nbytes) for a in arrays)
        device.alloc(tag, nbytes)

    # ------------------------------------------------------------------
    @_comm_span("alltoall")
    def alltoall(self, chunks: list[list[np.ndarray]], *, op_name: str = "alltoall"):
        """Generic all-to-all of per-destination numpy chunks.

        ``chunks[i][j]`` is what local rank ``i`` sends to local rank ``j``.
        Returns ``received`` with ``received[j][i] = chunks[i][j]``.
        """
        if len(chunks) != self.size:
            raise ValueError(
                f"expected {self.size} send lists, got {len(chunks)}"
            )
        for i, row in enumerate(chunks):
            if len(row) != self.size:
                raise ValueError(
                    f"rank {i} provided {len(row)} chunks, expected {self.size}"
                )
        traffic = np.array(
            [[float(chunks[i][j].nbytes) for j in range(self.size)] for i in range(self.size)]
        )
        estimate = self.world.network.alltoall_time(traffic, self._global)
        self._record(op_name, traffic, estimate)
        received = [[chunks[i][j] for i in range(self.size)] for j in range(self.size)]
        return received

    def alltoall_single(self, buffers: list[np.ndarray], *, op_name: str = "alltoall"):
        """Even all-to-all: each rank's buffer is split into ``size`` equal
        slices along axis 0 and slice ``j`` is delivered to rank ``j``.

        Returns per-rank arrays formed by concatenating the received slices
        in source-rank order — the semantics of ``all_to_all_single``.
        """
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        chunks = []
        for i, buf in enumerate(buffers):
            if buf.shape[0] % self.size:
                raise ValueError(
                    f"rank {i} buffer first dim {buf.shape[0]} not divisible by "
                    f"group size {self.size}"
                )
            chunks.append(list(np.split(buf, self.size, axis=0)))
        received = self.alltoall(chunks, op_name=op_name)
        return [np.concatenate(r, axis=0) for r in received]

    def alltoallv(
        self,
        buffers: list[np.ndarray],
        send_splits: list[np.ndarray],
        *,
        op_name: str = "alltoallv",
    ):
        """Uneven all-to-all along axis 0.

        ``send_splits[i]`` is a length-``size`` integer array; rank ``i``
        sends the first ``send_splits[i][0]`` rows to rank 0, the next
        ``send_splits[i][1]`` rows to rank 1, and so on.  Returns
        ``(received_buffers, recv_splits)`` where ``recv_splits[j][i]`` is
        the number of rows rank ``j`` received from rank ``i``.
        """
        if len(buffers) != self.size or len(send_splits) != self.size:
            raise ValueError("buffers and send_splits must both have group-size entries")
        chunks: list[list[np.ndarray]] = []
        for i, (buf, splits) in enumerate(zip(buffers, send_splits)):
            splits = np.asarray(splits, dtype=np.int64)
            if splits.size != self.size:
                raise ValueError(
                    f"rank {i} send_splits has {splits.size} entries, expected {self.size}"
                )
            if splits.sum() != buf.shape[0]:
                raise ValueError(
                    f"rank {i} send_splits sum {splits.sum()} != buffer rows {buf.shape[0]}"
                )
            offsets = np.concatenate([[0], np.cumsum(splits)])
            chunks.append(
                [buf[offsets[j] : offsets[j + 1]] for j in range(self.size)]
            )
        received = self.alltoall(chunks, op_name=op_name)
        recv_splits = [
            np.array([received[j][i].shape[0] for i in range(self.size)], dtype=np.int64)
            for j in range(self.size)
        ]
        out = []
        for j in range(self.size):
            parts = [r for r in received[j]]
            if parts:
                out.append(np.concatenate(parts, axis=0))
            else:  # pragma: no cover - group of size 0 impossible
                out.append(np.empty((0,)))
        return out, recv_splits

    @_comm_span("alltoallv")
    def alltoallv_planned(
        self,
        buffers: list[np.ndarray],
        send_splits: list[np.ndarray],
        recv_splits: list[np.ndarray] | None = None,
        *,
        op_name: str = "alltoallv",
    ):
        """Uneven all-to-all whose splits come from a precomputed routing plan.

        Unlike :meth:`alltoallv`, the per-pair byte/tier accounting is
        computed directly from the plan's splits (``rows x row_bytes``,
        through :meth:`account_alltoallv`) instead of being re-derived
        from per-chunk payloads.  When
        ``recv_splits`` is provided it is validated against the send-split
        transpose (catching stale plans) and returned as-is.  Semantics
        are identical: rank ``i`` sends the first ``send_splits[i][0]``
        rows of ``buffers[i]`` to rank 0, the next ``send_splits[i][1]``
        rows to rank 1, and so on.  Returns
        ``(received_buffers, recv_splits)``.
        """
        size = self.size
        if len(buffers) != size or len(send_splits) != size:
            raise ValueError("buffers and send_splits must both have group-size entries")
        splits_mat = np.stack(
            [np.asarray(s, dtype=np.int64) for s in send_splits]
        )
        if splits_mat.shape != (size, size):
            raise ValueError(
                f"send_splits must be {size} arrays of {size} entries each"
            )
        row_bytes = np.array(
            [b.itemsize * int(np.prod(b.shape[1:])) for b in buffers],
            dtype=np.float64,
        )
        row_counts = splits_mat.sum(axis=1)
        for i, buf in enumerate(buffers):
            if row_counts[i] != buf.shape[0]:
                raise ValueError(
                    f"rank {i} send_splits sum {row_counts[i]} != buffer rows {buf.shape[0]}"
                )
        if recv_splits is not None and not np.array_equal(
            np.stack([np.asarray(s, dtype=np.int64) for s in recv_splits]),
            splits_mat.T,
        ):
            raise ValueError(
                "recv_splits do not match the transpose of send_splits "
                "(stale or mismatched plan)"
            )
        self.world.stats.record(
            self.account_alltoallv(splits_mat, row_bytes, op_name=op_name)
        )

        offsets = np.concatenate(
            [np.zeros((size, 1), dtype=np.int64), np.cumsum(splits_mat, axis=1)],
            axis=1,
        )
        received = [
            np.concatenate(
                [buffers[i][offsets[i, j] : offsets[i, j + 1]] for i in range(size)],
                axis=0,
            )
            for j in range(size)
        ]
        if recv_splits is None:
            recv_splits = [splits_mat[:, j].copy() for j in range(size)]
        return received, recv_splits

    @_comm_span("allgather")
    def allgather(self, buffers: list[np.ndarray], *, op_name: str = "allgather"):
        """All-gather along axis 0: every rank receives the concatenation of
        all ranks' buffers (in rank order)."""
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        nbytes = max(int(b.nbytes) for b in buffers)
        estimate = self.world.network.allgather_time(nbytes, self._global)
        traffic = np.full((self.size, self.size), nbytes, dtype=np.float64)
        np.fill_diagonal(traffic, 0.0)
        self._record(op_name, traffic, estimate)
        gathered = np.concatenate(buffers, axis=0)
        return [gathered.copy() for _ in range(self.size)]

    @_comm_span("allreduce")
    def allreduce(
        self, buffers: list[np.ndarray], *, op: str = "sum", op_name: str = "allreduce"
    ):
        """All-reduce: every rank receives the elementwise reduction."""
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise ValueError(f"allreduce requires identical shapes, got {shapes}")
        stacked = np.stack(buffers, axis=0)
        if op == "sum":
            reduced = stacked.sum(axis=0)
        elif op == "max":
            reduced = stacked.max(axis=0)
        elif op == "mean":
            reduced = stacked.mean(axis=0)
        else:
            raise ValueError(f"unsupported allreduce op {op!r}")
        nbytes = int(buffers[0].nbytes)
        estimate = self.world.network.allreduce_time(nbytes, self._global)
        traffic = np.full((self.size, self.size), nbytes / max(1, self.size - 1))
        np.fill_diagonal(traffic, 0.0)
        self._record(op_name, traffic, estimate)
        return [reduced.copy() for _ in range(self.size)]

    @_comm_span("reduce_scatter")
    def reduce_scatter(
        self, buffers: list[np.ndarray], *, op_name: str = "reduce_scatter"
    ):
        """Reduce-scatter along axis 0: rank ``j`` gets slice ``j`` of the sum."""
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise ValueError(f"reduce_scatter requires identical shapes, got {shapes}")
        if buffers[0].shape[0] % self.size:
            raise ValueError("first dimension must be divisible by group size")
        total = np.stack(buffers, axis=0).sum(axis=0)
        slices = np.split(total, self.size, axis=0)
        nbytes = int(buffers[0].nbytes)
        estimate = self.world.network.reduce_scatter_time(nbytes, self._global)
        traffic = np.full((self.size, self.size), nbytes / max(1, self.size))
        np.fill_diagonal(traffic, 0.0)
        self._record(op_name, traffic, estimate)
        return [s.copy() for s in slices]

    @_comm_span("broadcast")
    def broadcast(self, buffer: np.ndarray, root: int = 0, *, op_name: str = "broadcast"):
        """Broadcast ``buffer`` (held by local rank ``root``) to every rank."""
        if not (0 <= root < self.size):
            raise ValueError(f"root {root} out of range")
        nbytes = int(buffer.nbytes)
        estimate = self.world.network.allgather_time(nbytes, self._global)
        traffic = np.zeros((self.size, self.size))
        traffic[root, :] = nbytes
        traffic[root, root] = 0.0
        self._record(op_name, traffic, estimate)
        return [buffer.copy() for _ in range(self.size)]

    # ------------------------------------------------------------------
    def node_local_subgroups(self) -> list["ProcessGroup"]:
        """Split this group into subgroups of ranks sharing a node."""
        by_node: dict[int, list[int]] = {}
        for r in self.ranks:
            by_node.setdefault(self.world.topology.node_of(r), []).append(r)
        return [ProcessGroup(self.world, rs) for _, rs in sorted(by_node.items())]

    def local_rank_of(self, global_rank: int) -> int:
        """Group-local index of a global rank."""
        return self.ranks.index(global_rank)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessGroup(size={self.size}, ranks={self.ranks[:8]}{'...' if self.size > 8 else ''})"
