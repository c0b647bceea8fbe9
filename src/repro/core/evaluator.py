"""The Mapping Evaluator (paper Fig. 1, box 4).

Computes, for one mapping or a batch of mappings, the worst-case insertion
loss (eq. 3) and the worst-case SNR (eq. 4) of every CG edge, using the
precomputed :class:`~repro.models.coupling.CouplingModel` matrices — a
mapping evaluation reduces to numpy gathers, so the optimizers and the
100,000-random-mapping experiment stay fast.

Noise aggregation honours the concurrency model of DESIGN.md §3: the noise
of a victim edge sums the couplings from every other CG edge except those
sharing the victim's source task (one transmitter) or destination task
(one receiver), which the hardware serializes.

The evaluator also counts evaluations: the paper compares optimization
algorithms under the same search effort, and the evaluation count is this
reproduction's effort currency (DESIGN.md §4).

This is the *full* evaluator: every candidate whose tables read SNR pays
the O(E^2) masked noise contraction regardless of how similar it is to
the previous one. A batch computes only the tables its caller reads, on
every path (inline, sharded over any executor, coalesced): the three
:class:`BatchMetrics` fields, or the score alone for a ``score_only``
batch (see :meth:`MappingEvaluator.submit_batch`). Loss-family scores
(``loss``, ``weighted_loss``, ``laser_power``) read only the
insertion-loss table, so a ``score_only`` batch for them never runs the
contraction. Local-search strategies
exploring one-move neighbourhoods should prefer
:class:`~repro.core.delta.DeltaEvaluator`, which wraps this class,
maintains per-edge state for one incumbent, and scores a move in
O(E * affected edges) — falling back to the full path here on resets,
commits and ``use_delta=False``. Evaluation counts are charged to this
evaluator either way.

Each row-scoring rule has one home here, which the single, batch,
coalesced, delta and inspection paths all call: the slot rule
(``_pair_table``), the SNR formula (``_snr_db``), the metric tables
(``_table``) and the batch charge (``_charge``).

Dense and sparse noise kernels (PR 4)
-------------------------------------
The noise contraction has two interchangeable kernels:

* ``"dense"`` gathers the ``(M, E, E)`` coupling grid out of the dense
  ``O(n_pairs^2)`` matrix and contracts it against the serialization
  mask — best when the communication graph has few edges relative to the
  coupling matrix's nonzero count (every paper benchmark).
* ``"sparse"`` streams the CSR rows of the coupling matrix
  (:meth:`repro.models.coupling.CouplingModel.csr`) once per mapping:
  per victim edge it sums only that pair's nonzero aggressor columns,
  restricted to the pairs the mapping actually uses, then subtracts the
  few serialization-mask conflicts (with a cancellation guard that keeps
  exactly-zero noise exact). Cost is ``O(nnz)`` per mapping instead of
  ``O(E^2)`` gathers, which wins for edge-dense graphs — uniform /
  all-to-all traffic on 8x8+ meshes — where the dense grid barely fits
  in memory.

:func:`noise_kernel` picks the kernel from measured density alone —
sparse when ``SPARSE_AUTO_FACTOR * E^2 >= nnz`` — so every process
evaluating a problem resolves the same one, exposed as
:attr:`MappingEvaluator.backend`.

Either kernel is bit-identical to itself for any ``n_workers`` (all
reductions are row-local), and the two agree to tight tolerance — see
``tests/core/test_sparse_backend.py``.

Sharded and asynchronous batches (PR 3)
---------------------------------------
:meth:`MappingEvaluator.evaluate_batch` accepts ``n_workers``: with more
than one worker the assignment matrix is split into row shards scored by
a persistent process pool (:mod:`repro.core.pool`) and merged into one
:class:`BatchMetrics` that is **bit-identical to the sequential result
for any worker count** — every reduction in the metric pipeline runs
within a row, so shard boundaries cannot change values.
:meth:`MappingEvaluator.submit_batch` is the asynchronous variant: it
returns a :class:`PendingBatch` immediately, letting callers (random
search, the GA, the Fig. 3 distribution sweep) generate the next batch
while workers score the current one. Evaluation counts are charged when
a pending batch's result is collected, so collection order reproduces
the sequential counter exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.executor import FanOut, parse_executor_spec
from repro.core.mapping import Mapping
from repro.core.objectives import (
    BASE_TABLES,
    SNR_CAP_DB,
    VARIATION_TABLES,
    spec_for,
)
from repro.core.problem import MappingProblem
from repro.errors import MappingError
from repro.models.coupling import CouplingModel, cached_network
from repro.noc.network import PhotonicNoC

__all__ = [
    "EdgeMetrics",
    "MappingMetrics",
    "BatchMetrics",
    "PendingBatch",
    "MappingEvaluator",
    "noise_kernel",
]

#: Target bytes per evaluation chunk, sized for a core's L2: the dense
#: kernel's (M, E, E) int64 gather index and float64 grid (16 bytes per
#: element) stay resident while the mask multiply and the row sum walk
#: them. On a 2-vCPU Xeon (2 MiB L2 per core), 4,096-row batches of the
#: eight paper apps took as long at 2 MiB as at 4, and 5-18% longer at
#: 1 or 8 MiB. Rows reduce row-locally, so every table is bit-identical
#: for any chunking.
_CHUNK_BYTES = 2 * 1024 * 1024

#: Minimum rows per worker shard: below this the process round-trip costs
#: more than the numpy work it ships, so batch submission falls back to
#: the inline path (results are bit-identical either way).
MIN_SHARD_ROWS = 64

#: A table of at most this many rows (the product of its leading axes)
#: reduces with one ``np.add.accumulate`` call, a wider one with one add
#: per column: numpy's per-call overhead dominates a narrow table, and
#: accumulate's per-row inner loop a wide one (crossover measured at
#: 128-256 rows for widths 8-40). Both add strictly left to right.
_ACCUMULATE_ROWS = 128


def _row_sum(table: np.ndarray) -> np.ndarray:
    """Sum over the last axis with a batch-size-independent order.

    numpy's native last-axis reduction (``table.sum(axis=-1)``) blocks
    its pairwise accumulation differently depending on the *leading*
    dimensions, so the same row summed inside a 1-row chunk and inside a
    64-row chunk can disagree in the last ULP — which would break the
    bit-identical-for-any-chunk/shard contract for every sum-based
    metric (mean SNR, the bandwidth-weighted loss, the laser-power
    budget, the robust aggregate). Both forms below accumulate strictly
    left to right, ``((0.0 + t[0]) + t[1]) + ...``: the order depends
    only on the reduced width, never on how many rows ride along, and
    which form runs follows the table's shape alone
    (:data:`_ACCUMULATE_ROWS`).
    """
    width = table.shape[-1]
    if width and table.size <= _ACCUMULATE_ROWS * width:
        # accumulate starts from t[0], not 0.0 + t[0]: the two differ
        # only while every term so far is -0.0, and the trailing + 0.0
        # turns that all -0.0 row into the loop's +0.0.
        return np.add.accumulate(table, axis=-1)[..., -1] + 0.0
    out = np.zeros(table.shape[:-1], dtype=np.float64)
    for k in range(width):
        out += table[..., k]
    return out


def _snr_db(signal: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-edge SNR (eq. 4) in dB, capped at ``SNR_CAP_DB`` where noise is 0."""
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(signal / np.where(noise > 0.0, noise, 1.0))
    return np.where(noise > 0.0, snr, SNR_CAP_DB)


#: :func:`noise_kernel` picks the sparse contraction when
#: ``SPARSE_AUTO_FACTOR * E^2 >= nnz``: the sparse kernel streams ~nnz
#: coupling values per mapping while the dense kernel gathers ~E^2, and
#: a streamed element costs roughly half a gathered one (measured on the
#: 8x8-mesh races of ``benchmarks/bench_sparse_backend.py``).
SPARSE_AUTO_FACTOR = 2.0


def noise_kernel(model: CouplingModel, n_edges: int) -> str:
    """The noise kernel (``"dense"`` or ``"sparse"``) for ``n_edges`` edges.

    Evaluators and local pools call it through this module, so every
    process resolves the same kernel for the same problem.
    """
    if SPARSE_AUTO_FACTOR * n_edges * n_edges >= model.nnz:
        return "sparse"
    return "dense"


def _sample_network(network: PhotonicNoC, params) -> PhotonicNoC:
    """``network`` at the device parameters ``params``, assembled once.

    Returns the netlist of the process-cached model for that signature
    when there is one, so a warm variation plan assembles nothing.
    """
    held = cached_network(
        PhotonicNoC.signature_of(
            network.topology, network.router_spec.name, params,
            network.routing, network.floorplan,
        )
    )
    return held if held is not None else network.with_params(params)


@dataclass(frozen=True)
class EdgeMetrics:
    """Per-edge physical metrics of one evaluated mapping."""

    insertion_loss_db: np.ndarray
    snr_db: np.ndarray
    noise_linear: np.ndarray
    signal_linear: np.ndarray


@dataclass(frozen=True)
class MappingMetrics:
    """Scalar metrics of one evaluated mapping.

    ``laser_power_db`` is the negated total laser-power budget (the
    ``laser_power`` objective's score; always computed).
    ``robust_snr_db`` is the variation-aggregated worst-case SNR — only
    present when the problem carries a variation plan.
    """

    worst_insertion_loss_db: float
    worst_snr_db: float
    mean_snr_db: float
    weighted_loss_db: float
    score: float
    edges: Optional[EdgeMetrics] = None
    laser_power_db: Optional[float] = None
    robust_snr_db: Optional[float] = None


@dataclass(frozen=True)
class BatchMetrics:
    """Vector metrics of a batch of evaluated mappings.

    A ``score_only`` batch computes only the objective's own table, so
    ``worst_insertion_loss_db`` and ``worst_snr_db`` are ``None`` unless
    the score is one of them.
    """

    worst_insertion_loss_db: Optional[np.ndarray]
    worst_snr_db: Optional[np.ndarray]
    score: np.ndarray


class PendingBatch:
    """Handle for an in-flight (possibly sharded) batch evaluation.

    Returned by :meth:`MappingEvaluator.submit_batch`. Holds either the
    already-computed metric tables (eager path: one worker, or a batch
    too small to shard) or the :class:`~repro.core.executor.FanOut` of
    its row shards on the persistent pool.

    Evaluation counting happens in :meth:`result`, exactly once per
    batch: callers that pipeline submissions therefore reproduce the
    sequential evaluation counter — and so the optimizers' convergence
    histories — bit for bit, as long as they collect results in
    submission order.
    """

    def __init__(self, evaluator, n_mappings, tables=None, fanout=None):
        self._evaluator = evaluator
        self._n = int(n_mappings)
        self._tables = tables
        self._fanout: Optional[FanOut] = fanout
        self._metrics: Optional[BatchMetrics] = None

    @property
    def _pool(self):
        """The backend serving the shards (``None`` when scored inline).

        Stays set after collection: perfbench's span recorder reads it
        once :meth:`result` returns to tell pooled waits from inline ones.
        """
        return None if self._fanout is None else self._fanout.backend

    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking."""
        return self._fanout is None or self._fanout.done()

    def tables(self):
        """Collect (blocking if needed) the raw per-row metric tables.

        Returns
        -------
        tuple of numpy.ndarray
            Per-row metric vectors, one per name in the evaluator's
            :attr:`MappingEvaluator.table_names`: the objective-free
            tables the batch asked for, ``None`` for every other (on
            the inline path and from pool workers alike). Unlike
            :meth:`result` this charges **nothing** to the evaluator's
            evaluation counter: it is the seam the service layer's
            cross-request batch coalescer uses to score one merged
            flight and re-split it per request, each request applying
            its own objective and charging its own evaluator.
        """
        if self._tables is None:
            if self._metrics is not None:
                raise RuntimeError(
                    "batch tables were already consumed by result()"
                )
            self._tables = tuple(
                None if columns[0] is None else np.concatenate(columns)
                for columns in zip(*self._fanout.results())
            )
        return self._tables

    def result(self) -> BatchMetrics:
        """Collect (blocking if needed) and return the batch metrics.

        Returns
        -------
        BatchMetrics
            Per-row worst insertion loss, worst SNR and objective score,
            bit-identical to the sequential ``evaluate_batch`` result.

        Notes
        -----
        The first call charges the batch to the evaluator's evaluation
        counter; later calls return the cached metrics without
        re-charging.
        """
        if self._metrics is None:
            tables = self.tables()
            self._tables = None
            self._metrics = self._evaluator._charge(tables, self._n)
        return self._metrics


class _SparseModelState:
    """One coupling model's CSR state: the nominal model's or a sample's.

    The weight/row-dot scratch buffers are shared across models (they
    are sized by ``n_pairs``, identical for every sample of one
    topology); only the CSR arrays and the value scratch — sized by
    the model's nonzero count — are per-model.
    """

    __slots__ = ("csr", "coupling", "_values")

    def __init__(self, model) -> None:
        self.csr = model.csr()
        self.coupling = model.coupling_linear
        self._values: Optional[np.ndarray] = None

    @property
    def values(self) -> Optional[np.ndarray]:
        """The ``(nnz,)`` row-dot scratch, allocated on first use."""
        if self._values is None and self.csr.nnz:
            self._values = np.empty(self.csr.nnz, dtype=np.float64)
        return self._values


class MappingEvaluator:
    """Matrix-backed evaluator for a :class:`MappingProblem`.

    Reduces a mapping evaluation to numpy gathers over the precomputed
    :class:`~repro.models.coupling.CouplingModel` matrices, and counts
    every evaluation (the reproduction's search-effort currency).

    Parameters
    ----------
    problem : MappingProblem
        The problem instance (CG + network + objective) to evaluate for.
    n_workers : int, optional
        Default shard width of :meth:`evaluate_batch` /
        :meth:`submit_batch` (default 1, fully sequential). Any value
        yields bit-identical metrics; larger values only pay off for
        large batches (thousands of rows).
    executor : str, optional
        Execution backend spec for sharded batches — ``"local"``
        (persistent process pool, the default), ``"inline"`` (serial,
        zero processes) or ``"tcp://HOST:PORT"`` (remote workers; see
        :mod:`repro.distributed`). Any backend yields bit-identical
        metrics; the spec only decides where shards run.

    Attributes
    ----------
    evaluations : int
        Number of mapping evaluations charged so far (see
        :meth:`reset_count`).
    """

    def __init__(
        self,
        problem: MappingProblem,
        n_workers: int = 1,
        executor: str = "local",
    ) -> None:
        self.problem = problem
        self.executor = parse_executor_spec(executor)
        self.cg = problem.cg
        self.network = problem.network
        self.objective = problem.objective
        self.routes = problem.routes
        self.model = CouplingModel.for_network(problem.network, routes=self.routes)
        # Read-only tables derived once per CG (see CommunicationGraph).
        self._edges = self.cg.edge_table
        self._route_counts: Optional[np.ndarray] = None  # lazy, routes > 1
        self._mask_linear = self.cg.mask_linear
        self._bandwidth_weights = self.cg.bandwidth_weights
        self.n_workers = self._check_workers(n_workers)
        self._backend = noise_kernel(self.model, len(self._edges))
        self._sparse: Optional[_SparseModelState] = None  # sparse kernel only
        if self._backend == "sparse":
            self._sparse = _SparseModelState(self.model)
            n_pairs = self.model.n_pairs
            self._w_scratch = np.zeros(n_pairs, dtype=np.float64)
            self._rowdot_scratch = np.zeros(n_pairs, dtype=np.float64)
        # Variation-robust scoring: one coupling model per perturbed
        # device sample, each resolved through the same process/disk
        # cache chain as the nominal model (the perturbed params' content
        # hashes key distinct cache entries), so repeated sweeps and
        # worker hydrations never rebuild a sample they have seen, nor
        # re-assemble the netlist of a sample the process holds.
        self.variation = problem.variation
        self._sample_models: tuple = ()
        self._sample_sparse: tuple = ()
        if self.variation is not None:
            sample_params = self.variation.samples(problem.network.params)
            self._sample_models = tuple(
                CouplingModel.for_network(
                    _sample_network(problem.network, params), routes=self.routes
                )
                for params in sample_params
            )
            self._sample_sparse = tuple(
                None if self._sparse is None else _SparseModelState(model)
                for model in self._sample_models
            )
        #: Names of the per-row metric tables this evaluator produces, in
        #: wire order (grows the ``robust_snr`` column when the problem
        #: carries a variation plan).
        self.table_names = (
            BASE_TABLES if self.variation is None else VARIATION_TABLES
        )
        score_table = spec_for(self.objective).table
        if score_table not in self.table_names:
            raise MappingError(
                f"objective {self.objective.value!r} needs the "
                f"{score_table!r} metric table, which this problem does "
                "not produce (missing variation plan)"
            )
        self._score_index = self.table_names.index(score_table)
        self.evaluations = 0

    @staticmethod
    def _check_workers(n_workers: int) -> int:
        n_workers = int(n_workers)
        if n_workers < 1:
            raise MappingError(f"n_workers must be >= 1, got {n_workers}")
        return n_workers

    @property
    def backend(self) -> str:
        """The noise kernel :func:`noise_kernel` picked for this problem."""
        return self._backend

    # -- batch evaluation ---------------------------------------------------------

    def _check_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Coerce a batch to design-vector rows (int64), or raise.

        At ``routes == 1`` rows are plain ``(M, n_tasks)`` assignments.
        Routed evaluators additionally accept the widened
        ``(M, n_tasks + n_edges)`` joint vectors, and pad plain
        assignment rows with zero route genes (gene 0 is the base route,
        so a padded row scores exactly like the mapping-only candidate).
        """
        assignments = np.atleast_2d(np.asarray(assignments, dtype=np.int64))
        width = assignments.shape[1]
        if width == self.cg.n_tasks:
            if self.routes > 1:
                genes = np.zeros(
                    (assignments.shape[0], self.n_edges), dtype=np.int64
                )
                assignments = np.hstack([assignments, genes])
            return assignments
        if self.routes > 1 and width == self.cg.n_tasks + self.n_edges:
            return assignments
        expected = (
            f"{self.cg.n_tasks}"
            if self.routes == 1
            else f"{self.cg.n_tasks} or {self.cg.n_tasks + self.n_edges}"
        )
        raise MappingError(
            f"batch has {width} tasks per mapping, expected {expected}"
        )

    def evaluate_batch(
        self,
        assignments: np.ndarray,
        n_workers: Optional[int] = None,
        min_shard_rows: Optional[int] = None,
        score_only: bool = False,
    ) -> BatchMetrics:
        """Evaluate a ``(M, n_tasks)`` batch of assignments.

        Parameters
        ----------
        assignments : numpy.ndarray
            Batch of assignments, one row per mapping. Rows are trusted
            to be valid (injective, in range); use :meth:`evaluate` /
            :class:`~repro.core.mapping.Mapping` at API boundaries.
        n_workers : int, optional
            Number of row shards to score in the persistent process pool
            (default: the evaluator's ``n_workers``). With one worker —
            or a batch too small to shard — evaluation runs inline.
        min_shard_rows : int, optional
            Floor on rows per shard (default :data:`MIN_SHARD_ROWS`):
            when the batch cannot give at least this many rows to two
            shards it runs inline instead, because the process
            round-trip would cost more than the numpy work it ships.
            Pass 1 to force sharding of any batch.
        score_only : bool, optional
            Compute only the objective's score table, as in
            :meth:`submit_batch` (default False).

        Returns
        -------
        BatchMetrics
            Per-row worst insertion loss, worst SNR and objective score
            (the first two ``None`` when ``score_only`` skipped them).

        Notes
        -----
        **Bit-identical for any** ``n_workers``: every reduction (noise
        contraction, per-row minima/means, the bandwidth-weighted dot
        product) runs within a row, so splitting rows across workers
        cannot change any result, only the wall-clock time. The batch is
        charged to :attr:`evaluations` exactly once either way.
        """
        return self.submit_batch(
            assignments,
            n_workers=n_workers,
            min_shard_rows=min_shard_rows,
            score_only=score_only,
        ).result()

    def submit_batch(
        self,
        assignments: np.ndarray,
        n_workers: Optional[int] = None,
        min_shard_rows: Optional[int] = None,
        score_only: bool = False,
    ) -> PendingBatch:
        """Submit a batch for evaluation, returning immediately.

        The asynchronous companion of :meth:`evaluate_batch`: with more
        than one worker the row shards are queued on the persistent pool
        and scored in the background, so the caller can generate the next
        candidate batch while this one is being evaluated (random search
        and the Fig. 3 sweep pipeline this way — one slow shard never
        stalls candidate generation).

        Parameters
        ----------
        assignments : numpy.ndarray
            Batch of assignments, one row per mapping (validated like
            :meth:`evaluate_batch`; the data is snapshotted at submit
            time, so the caller may reuse its buffer afterwards).
        n_workers : int, optional
            Shard width override (default: the evaluator's
            ``n_workers``).
        min_shard_rows : int, optional
            Rows-per-shard floor, as in :meth:`evaluate_batch`.
        score_only : bool, optional
            Compute only the objective's score table (default False) —
            for callers that read nothing but ``.score``, like the
            search strategies: a loss-family objective then never runs
            the noise contraction, and the :class:`BatchMetrics` fields
            not computed are ``None``. Without it the batch computes
            the three :class:`BatchMetrics` fields and nothing else.
            Inline and sharded batches compute the same tables, and
            every value is bit-identical either way.

        Returns
        -------
        PendingBatch
            Handle whose :meth:`PendingBatch.result` yields the
            :class:`BatchMetrics`, bit-identical to the sequential path,
            and charges :attr:`evaluations` on first collection.
        """
        return self._submit(
            assignments, self._batch_tables(score_only), n_workers, min_shard_rows
        )

    def _batch_tables(self, score_only: bool) -> tuple:
        """The tables a batch's :class:`BatchMetrics` read, in table order.

        The score table alone for a ``score_only`` batch; otherwise the
        worst IL, the worst SNR and the score, each once.
        """
        score = self.table_names[self._score_index]
        read = (score,) if score_only else ("worst_il", "worst_snr", score)
        return tuple(name for name in self.table_names if name in read)

    def _submit(
        self,
        assignments: np.ndarray,
        names=None,
        n_workers: Optional[int] = None,
        min_shard_rows: Optional[int] = None,
    ) -> PendingBatch:
        """:meth:`submit_batch` computing only the tables in ``names``.

        ``names`` (default: every table) restricts what the batch
        computes, as :meth:`_evaluate_rows` does; the others come back
        ``None``. Every shard of a sharded batch carries the same names
        to its worker. The service's coalesced flights call this with
        their riders' tables.
        """
        assignments = self._check_batch(assignments)
        n_mappings = assignments.shape[0]
        workers = (
            self.n_workers if n_workers is None else self._check_workers(n_workers)
        )
        floor = (
            MIN_SHARD_ROWS if min_shard_rows is None else max(1, int(min_shard_rows))
        )
        n_shards = min(workers, n_mappings // floor)
        if n_shards < 2:
            return PendingBatch(
                self, n_mappings, tables=self._evaluate_rows(assignments, names)
            )
        from repro.core import parallel as _parallel
        from repro.core import pool as _pool

        bounds = np.linspace(0, n_mappings, n_shards + 1).astype(np.int64)
        # .copy(): executors pickle lazily in a feeder thread, so snapshot
        # each shard at submit time — callers may keep writing other rows
        # of their buffer immediately.
        shards = [
            assignments[start:stop].copy()
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]

        fanout = FanOut(
            lambda: _pool.get_pool(self.problem, workers, executor=self.executor),
            lambda pool: pool.map_shards(
                _parallel.evaluate_shard_task, shards, names
            ),
            len(shards),
        )
        return PendingBatch(self, n_mappings, fanout=fanout)

    def _evaluate_rows(self, assignments: np.ndarray, names=None):
        """Score validated rows sequentially, without counting.

        Returns the per-row metric tables named by :attr:`table_names`
        (in that order); used by the inline path, and by pool workers
        scoring one shard each (objective-free — the score is applied by
        whoever collects the tables). ``names`` restricts the tables
        computed (default: all of them); the others come back ``None``.
        """
        if names is None:
            names = self.table_names
        n_mappings = assignments.shape[0]
        chunk = self._chunk_rows()
        out = {name: np.empty(n_mappings, dtype=np.float64) for name in names}
        for start in range(0, n_mappings, chunk):
            stop = min(start + chunk, n_mappings)
            self._evaluate_chunk(
                assignments[start:stop],
                {name: column[start:stop] for name, column in out.items()},
            )
        return tuple(out.get(name) for name in self.table_names)

    def _chunk_rows(self) -> int:
        """Mappings per chunk keeping per-chunk transients within budget.

        Dense: the (M, E, E) gather dominates, 16 bytes per element
        (its int64 index plus the float64 coupling it reads).
        Sparse: the per-mapping matvec reuses fixed scratch buffers, so
        only the (M, E, K) conflict gather scales with the chunk.
        """
        n_edges = len(self._edges)
        if self.backend == "sparse":
            width = max(1, n_edges * self.cg.conflict_tables[0].shape[1] * 3)
            return max(1, _CHUNK_BYTES // (8 * width))
        return max(1, _CHUNK_BYTES // max(1, 16 * n_edges * n_edges))

    def _pair_table(self, vectors: np.ndarray) -> np.ndarray:
        """Flat model-slot indices: (M, E) for a batch, (E,) for one vector.

        Pair indices depend only on the mapping and the topology (and,
        for routed evaluators, the per-edge route genes riding in the
        vector's tail), so one table serves the nominal model, every
        variation sample and the delta engine's incumbent. At
        ``routes == 1`` the gene offset vanishes and this is exactly the
        tile-pair table.

        A batch's table is row-major: ``vectors[:, src]`` would come back
        column-major, and the dense kernel's flat gather through an index
        built from it runs several times slower.
        """
        src, dst = self._edges[:, 0], self._edges[:, 1]
        if vectors.ndim == 2:
            # src and dst are the CG's validated task indices and
            # _check_batch fixed the row width, so clip never engages:
            # it only spares numpy's bounds check, which costs more
            # than the gather.
            pairs = self.model.pair_indices(
                vectors.take(src, axis=1, mode="clip"),
                vectors.take(dst, axis=1, mode="clip"),
            )
        else:
            # Not take(): on one short vector it costs ~0.5 us more a gather.
            pairs = self.model.pair_indices(vectors[src], vectors[dst])
        if self.routes > 1:
            pairs = pairs + vectors[..., self.cg.n_tasks:]
        return pairs

    def _tables_from_pairs(self, pairs, model, sparse_state):
        """(il, noise, signal) tables of shape (M, E) for one model.

        The nominal model, every variation sample (each with its own
        CSR state, ``None`` on the dense kernel) and the delta engine's
        incumbent go through the same kernels, so each inherits the
        row-local-reduction determinism guarantees. Callers that read
        SNR apply :func:`_snr_db` to the last two.
        """
        il = model.insertion_loss_db[pairs]
        signal = model.signal_linear[pairs]
        if sparse_state is not None:
            noise = self._sparse_noise(pairs, sparse_state)
        else:
            noise = self._dense_noise(pairs, model.coupling_linear)
        return il, noise, signal

    def _dense_noise(self, pairs: np.ndarray, coupling: np.ndarray) -> np.ndarray:
        """Masked noise contraction over a dense coupling matrix.

        The (M, E, E) grid ``coupling[pairs[m, v], pairs[m, a]]`` is one
        ``take`` from the flattened matrix through a row-major int64
        index: a flat gather costs about half what 2-D broadcast fancy
        indexing does per element. The index is only as row-major as
        ``pairs``, which :meth:`_pair_table` guarantees; a column-major
        index makes the ``take`` several times slower. Chunks keep
        index and grid inside a core's L2 (:data:`_CHUNK_BYTES`).

        NOT einsum, and NOT a native ``grid.sum(axis=2)``: both block
        their accumulation differently depending on the batch size M,
        which would break the bit-identical-for-any-shard-split
        guarantee of ``evaluate_batch``. An in-place multiply plus the
        sequential :func:`_row_sum` reduces each (m, v) row in an order
        that depends only on E.
        """
        index = pairs[:, :, None] * coupling.shape[1] + pairs[:, None, :]
        grid = coupling.reshape(-1).take(index)
        grid *= self._mask_linear
        return _row_sum(grid)

    def _sparse_noise(
        self, pairs: np.ndarray, state: _SparseModelState
    ) -> np.ndarray:
        """Masked noise contraction streaming the CSR coupling rows.

        Per mapping ``m``: one CSR matvec against the 0/1 indicator of
        the mapping's used pairs yields, for every victim pair, the sum
        of its nonzero aggressor columns restricted to the mapping
        (``O(nnz)`` streamed, no ``(M, E, E)`` grid); the few
        serialization-mask conflicts are then gathered and subtracted
        per victim edge. Both the matvec (sequential within a CSR row)
        and the conflict sum (last-axis reduction of width K) have
        reduction orders independent of chunk and shard boundaries, so
        the sparse kernel keeps the bit-identical-for-any-``n_workers``
        guarantee.

        The subtraction cancels exactly-equal magnitudes for victims
        whose true masked noise is zero (isolated communications), which
        would leave ~1e-19 residue and defeat the SNR cap; any entry
        tiny relative to its unmasked sum is therefore recomputed as the
        cancellation-free masked sum of non-negative couplings, which is
        exactly 0.0 when the true noise is.
        """
        n_moves, n_edges = pairs.shape
        csr, values, coupling = state.csr, state.values, state.coupling
        w = self._w_scratch
        rowdot = self._rowdot_scratch
        unmasked = np.empty((n_moves, n_edges), dtype=np.float64)
        for m in range(n_moves):
            w[pairs[m]] = 1.0
            csr.row_dots(w, out=rowdot, scratch=values)
            np.take(rowdot, pairs[m], out=unmasked[m])
            w[pairs[m]] = 0.0
        # Conflict correction, accumulated one conflict column at a time:
        # an (M, E, K) gather-then-sum would reduce a *non-contiguous*
        # fancy-indexing result, and numpy's buffered reduction of
        # non-contiguous arrays blocks across rows — last-ULP results
        # would then depend on the chunk size, breaking the
        # bit-identical-for-any-n_workers contract. K sequential
        # elementwise adds are shape-independent by construction.
        conflict = np.zeros_like(unmasked)
        conf_idx, conf_w = self.cg.conflict_tables
        for k in range(conf_idx.shape[1]):
            conflict_pairs = pairs[:, conf_idx[:, k]]
            conflict += coupling[pairs, conflict_pairs] * conf_w[:, k]
        noise = unmasked - conflict
        suspect_m, suspect_v = np.nonzero(noise <= 1e-12 * unmasked)
        if len(suspect_m):
            noise[suspect_m, suspect_v] = self._masked_noise(
                coupling, pairs[suspect_m], suspect_v
            )
        return noise

    def _masked_noise(
        self, coupling: np.ndarray, pair_rows: np.ndarray, victims: np.ndarray
    ) -> np.ndarray:
        """Masked noise of chosen victims, summed from scratch.

        Entry ``i`` is ``sum_a mask[v, a] * coupling[p[v], p[a]]`` for
        ``v = victims[i]`` and ``p = pair_rows[i]`` (one mapping's
        ``(E,)`` pair row). Both cancellation guards — the sparse
        kernel's and the delta engine's — recompute their suspects
        here: couplings are non-negative, so the sum is exactly 0.0
        when the true noise is, and :func:`_row_sum` keeps each value
        independent of how many suspects share the call.
        """
        victim_pairs = pair_rows[np.arange(len(victims)), victims]
        return _row_sum(
            coupling[victim_pairs[:, None], pair_rows] * self._mask_linear[victims]
        )

    def _table(
        self, name: str, il: np.ndarray, snr: Optional[np.ndarray]
    ) -> np.ndarray:
        """Per-row metric table ``name`` from (M, E) IL and SNR tables.

        The one definition of every nominal table, shared by batches,
        :meth:`evaluate`, :meth:`_robust_table` and the delta engine.
        ``snr`` may be ``None`` for the loss tables. Minima are
        order-free and sums run through :func:`_row_sum`, so a row's
        value never depends on the rows beside it. ``laser_power`` is
        the negated PROTEUS-style budget in dB: each edge needs power
        ``10^(-il_db/10)`` to drive its path, so *maximizing* the table
        minimizes the provisioned laser power.
        """
        if name == "worst_il":
            return il.min(axis=1)
        if name == "weighted_il":
            return _row_sum(il * self._bandwidth_weights)
        if name == "laser_power":
            return -10.0 * np.log10(_row_sum(np.power(10.0, il * -0.1)))
        if name == "worst_snr":
            return snr.min(axis=1)
        if name == "mean_snr":
            return _row_sum(snr) / snr.shape[1]
        raise MappingError(f"no nominal metric table named {name!r}")

    def _robust_table(self, pairs: np.ndarray) -> np.ndarray:
        """Per-row variation-aggregated worst-case SNR for a chunk.

        Scores the chunk against every perturbed sample model in sample
        order (sample ``j`` is a pure function of ``(seed, j)``), then
        aggregates per row over the contiguous ``(M, S)`` sample axis —
        mean, or the configured quantile. Both aggregations are
        row-local with a reduction order depending only on S, so the
        robust column is bit-identical for any chunking, sharding,
        coalescing or executor placement, exactly like the base tables.
        """
        n_rows = pairs.shape[0]
        n_samples = len(self._sample_models)
        worst = np.empty((n_rows, n_samples), dtype=np.float64)
        samples = zip(self._sample_models, self._sample_sparse)
        for j, (model, state) in enumerate(samples):
            il, noise, signal = self._tables_from_pairs(pairs, model, state)
            worst[:, j] = self._table("worst_snr", il, _snr_db(signal, noise))
        if self.variation.quantile is None:
            return _row_sum(worst) / n_samples
        return np.quantile(worst, self.variation.quantile, axis=1)

    def _evaluate_chunk(self, assignments, out):
        """Fill one chunk's slice of every metric table in ``out``.

        Computes only what those tables read: the nominal noise
        contraction runs only for ``worst_snr`` / ``mean_snr`` and the
        per-sample ones only for ``robust_snr``, so loss-family tables
        never touch the coupling matrix. Returns the chunk's nominal
        per-edge ``(il, snr, noise, signal)`` tables (the last three
        ``None`` when no nominal SNR table was asked for), which
        :meth:`evaluate` keeps for ``with_edges``.
        """
        pairs = self._pair_table(assignments)
        if "worst_snr" in out or "mean_snr" in out:
            il, noise, signal = self._tables_from_pairs(
                pairs, self.model, self._sparse
            )
            snr = _snr_db(signal, noise)
        else:
            il = self.model.insertion_loss_db[pairs]
            snr = noise = signal = None
        for name, column in out.items():
            if name == "robust_snr":
                column[:] = self._robust_table(pairs)
            else:
                column[:] = self._table(name, il, snr)
        return il, snr, noise, signal

    def _charge(self, tables, n_rows: int) -> BatchMetrics:
        """Charge ``n_rows`` collected rows; their :class:`BatchMetrics`.

        ``tables`` follows :attr:`table_names`, which leads with
        ``worst_il`` and ``worst_snr`` in every table set.
        """
        self.evaluations += n_rows
        return BatchMetrics(tables[0], tables[1], tables[self._score_index])

    # -- single evaluation -----------------------------------------------------------

    def _single_row(self, mapping: Union[Mapping, np.ndarray]) -> np.ndarray:
        """One mapping as a validated ``(1, vector_width)`` batch.

        The assignment gets :class:`~repro.core.mapping.Mapping`'s
        placement check; a routed joint vector's genes pass through.
        """
        if isinstance(mapping, Mapping):
            return self._check_batch(mapping.assignment[None, :])
        vector = head = np.asarray(mapping)
        if self.routes > 1 and vector.ndim == 1 and len(vector) == self.vector_width:
            head = vector[: self.cg.n_tasks]
        head = Mapping(self.cg, head, self.n_tiles).assignment
        return self._check_batch(np.concatenate([head, vector[len(head):]])[None, :])

    def evaluate(
        self, mapping: Union[Mapping, np.ndarray], with_edges: bool = False
    ) -> MappingMetrics:
        """Evaluate one mapping, optionally keeping per-edge detail.

        Routed evaluators additionally accept a widened joint vector
        (``n_tasks + n_edges`` entries); its assignment head is
        validated exactly like a plain mapping. Scored as a one-row
        batch, so it agrees bit for bit with that row of any batch.
        """
        out = {name: np.empty(1, dtype=np.float64) for name in self.table_names}
        il, snr, noise, signal = self._evaluate_chunk(
            self._single_row(mapping), out
        )
        self.evaluations += 1
        value = {name: float(column[0]) for name, column in out.items()}
        edges = None
        if with_edges:
            edges = EdgeMetrics(il[0].copy(), snr[0].copy(), noise[0].copy(), signal[0].copy())
        return MappingMetrics(
            value["worst_il"],
            value["worst_snr"],
            value["mean_snr"],
            value["weighted_il"],
            value[self.table_names[self._score_index]],
            edges,
            laser_power_db=value["laser_power"],
            robust_snr_db=value.get("robust_snr"),
        )

    # -- conveniences ------------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        """Number of tiles of the target architecture."""
        return self.problem.n_tiles

    @property
    def n_tasks(self) -> int:
        """Number of tasks of the application CG."""
        return self.cg.n_tasks

    @property
    def n_edges(self) -> int:
        """Number of CG edges (the route-gene count of joint vectors)."""
        return len(self._edges)

    @property
    def vector_width(self) -> int:
        """Width of this evaluator's design vectors.

        ``n_tasks`` at ``routes == 1`` (plain assignments); widened by
        one route gene per CG edge for joint search.
        """
        if self.routes == 1:
            return self.cg.n_tasks
        return self.cg.n_tasks + self.n_edges

    def edge_menu_sizes(self, vector: np.ndarray) -> np.ndarray:
        """(E,) route-menu sizes of every CG edge under a design vector.

        The menu of an edge is the menu of the tile pair its endpoints
        currently map to, so this is assignment-dependent. Only
        meaningful for routed evaluators; the underlying per-pair counts
        are enumerated once per evaluator and cached.
        """
        if self._route_counts is None:
            self._route_counts = self.network.route_counts(self.routes)
        vector = np.asarray(vector)
        src_tiles = vector[..., self._edges[:, 0]]
        dst_tiles = vector[..., self._edges[:, 1]]
        return self._route_counts[src_tiles * self.n_tiles + dst_tiles]

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        """One random design vector (assignment, plus genes when routed).

        At ``routes == 1`` this draws exactly what
        :func:`~repro.core.mapping.random_assignment` draws — same RNG
        consumption, same values — so mapping-only runs are bit-identical
        to pre-routing code. Routed vectors append one uniform route gene
        per edge, drawn within the edge's menu under the sampled
        assignment.
        """
        from repro.core.mapping import random_assignment

        assignment = random_assignment(self.cg.n_tasks, self.n_tiles, rng)
        if self.routes == 1:
            return assignment
        genes = rng.integers(0, self.edge_menu_sizes(assignment), dtype=np.int64)
        return np.concatenate([assignment, genes])

    def random_vector_batch(
        self, n_vectors: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Shape (M, vector_width) batch of random design vectors.

        The assignment block consumes the RNG exactly like
        :func:`~repro.core.mapping.random_assignment_batch`; gene draws
        happen only when ``routes > 1``, after the whole assignment
        block, so mapping-only batches are bit-identical to pre-routing
        code.
        """
        from repro.core.mapping import random_assignment_batch

        batch = random_assignment_batch(
            n_vectors, self.cg.n_tasks, self.n_tiles, rng
        )
        if self.routes == 1:
            return batch
        genes = rng.integers(0, self.edge_menu_sizes(batch), dtype=np.int64)
        return np.hstack([batch, genes])

    def move_array_for(self, vector: np.ndarray) -> np.ndarray:
        """The full move neighbourhood of a design vector, ``(M, 3)`` int64.

        At ``routes == 1`` this is exactly
        :func:`~repro.core.moves.swap_move_array` of the assignment — same
        moves, same order — so mapping-only searches are unchanged.
        Routed evaluators append the reroute moves of every edge whose
        current tile pair offers more than one route.
        """
        from repro.core.moves import reroute_move_array, swap_move_array

        vector = np.asarray(vector)
        moves = swap_move_array(vector[: self.cg.n_tasks], self.n_tiles)
        if self.routes == 1:
            return moves
        reroutes = reroute_move_array(
            vector, self.cg.n_tasks, self.edge_menu_sizes(vector)
        )
        return np.concatenate([moves, reroutes])

    def moves_for(self, vector: np.ndarray) -> list:
        """:meth:`move_array_for` as a list of move tuples."""
        from repro.core.moves import _as_list

        return _as_list(self.move_array_for(vector))

    def reset_count(self) -> None:
        """Zero the evaluation counter (used between algorithm runs)."""
        self.evaluations = 0

    def close(self) -> None:
        """Release the persistent worker pools serving this problem.

        Sharded :meth:`evaluate_batch` calls lazily create process pools
        that otherwise stay warm until LRU eviction or interpreter exit;
        ``close()`` shuts the ones for this problem down
        deterministically. Safe to call when no pool was ever created,
        and the evaluator remains usable afterwards (a later sharded
        call simply builds a fresh pool). Also usable as a context
        manager: ``with MappingEvaluator(problem) as evaluator: ...``.
        """
        from repro.core import pool as _pool

        _pool.release_pools(self.problem)

    def __enter__(self) -> "MappingEvaluator":
        """Enter a ``with`` block; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release this problem's pools on ``with``-block exit."""
        self.close()
