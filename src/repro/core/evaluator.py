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

This is the *full* evaluator: every candidate pays the O(E^2) masked
noise contraction regardless of how similar it is to the previous one.
Local-search strategies exploring one-move neighbourhoods should prefer
:class:`~repro.core.delta.DeltaEvaluator`, which wraps this class,
maintains per-edge state for one incumbent, and scores a move in
O(E * affected edges) — falling back to the full path here on resets,
periodic refreshes, and ``use_delta=False``. Evaluation counts are
charged to this evaluator either way.

Dense and sparse contraction backends (PR 4)
--------------------------------------------
The noise contraction has two interchangeable implementations, selected
by the ``backend`` constructor argument:

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
* ``"auto"`` (the default) measures the model's nonzero count and picks
  sparse when ``SPARSE_AUTO_FACTOR * E^2 >= nnz`` (the empirically
  calibrated crossover of the two kernels' per-mapping cost).

Either backend is bit-identical to itself for any ``n_workers`` (all
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

from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.appgraph.graph import CommunicationGraph
from repro.core.executor import parse_executor_spec
from repro.core.mapping import Mapping
from repro.core.objectives import (
    BASE_TABLES,
    SNR_CAP_DB,
    VARIATION_TABLES,
    spec_for,
)
from repro.core.problem import MappingProblem
from repro.errors import MappingError
from repro.models.coupling import CouplingModel

__all__ = [
    "EdgeMetrics",
    "MappingMetrics",
    "BatchMetrics",
    "PendingBatch",
    "MappingEvaluator",
]

#: Target bytes per evaluation chunk (keeps the (M, E, E) gather bounded).
_CHUNK_BYTES = 64 * 1024 * 1024

#: Minimum rows per worker shard: below this the process round-trip costs
#: more than the numpy work it ships, so batch submission falls back to
#: the inline path (results are bit-identical either way).
MIN_SHARD_ROWS = 64

#: Recognized contraction backends.
BACKENDS = ("auto", "dense", "sparse")

def _row_sum(table: np.ndarray) -> np.ndarray:
    """Sum over the last axis with a batch-size-independent order.

    numpy's native last-axis reduction (``table.sum(axis=-1)``) blocks
    its pairwise accumulation differently depending on the *leading*
    dimensions, so the same row summed inside a 1-row chunk and inside a
    64-row chunk can disagree in the last ULP — which would break the
    bit-identical-for-any-chunk/shard contract for every sum-based
    metric (mean SNR, the bandwidth-weighted loss, the laser-power
    budget, the robust aggregate). One vectorized add per reduced column
    accumulates strictly left to right: the order depends only on the
    reduced width, never on how many rows ride along.
    """
    out = np.zeros(table.shape[:-1], dtype=np.float64)
    for k in range(table.shape[-1]):
        out += table[..., k]
    return out


#: ``backend="auto"`` picks the sparse contraction when
#: ``SPARSE_AUTO_FACTOR * E^2 >= nnz``: the sparse kernel streams ~nnz
#: coupling values per mapping while the dense kernel gathers ~E^2, and
#: a streamed element costs roughly half a gathered one (measured on the
#: 8x8-mesh races of ``benchmarks/bench_sparse_backend.py``).
SPARSE_AUTO_FACTOR = 2.0


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
    """Vector metrics of a batch of evaluated mappings."""

    worst_insertion_loss_db: np.ndarray
    worst_snr_db: np.ndarray
    score: np.ndarray


class PendingBatch:
    """Handle for an in-flight (possibly sharded) batch evaluation.

    Returned by :meth:`MappingEvaluator.submit_batch`. Holds either the
    already-computed metric tables (eager path: one worker, or a batch
    too small to shard) or one future per row shard submitted to the
    persistent pool.

    Evaluation counting happens in :meth:`result`, exactly once per
    batch: callers that pipeline submissions therefore reproduce the
    sequential evaluation counter — and so the optimizers' convergence
    histories — bit for bit, as long as they collect results in
    submission order.
    """

    def __init__(
        self,
        evaluator,
        n_mappings,
        tables=None,
        futures=None,
        pool=None,
        resubmit=None,
    ):
        self._evaluator = evaluator
        self._n = int(n_mappings)
        self._tables = tables
        self._futures = futures
        self._pool = pool  # keeps the pool referenced while in flight
        self._resubmit = resubmit  # re-dispatch hook for executor failures
        self._retried = False
        self._metrics: Optional[BatchMetrics] = None

    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking."""
        if self._metrics is not None or self._futures is None:
            return True
        return all(future.done() for future in self._futures)

    def tables(self):
        """Collect (blocking if needed) the raw per-row metric tables.

        Returns
        -------
        tuple of numpy.ndarray
            Per-row metric vectors, one per name in the evaluator's
            :attr:`MappingEvaluator.table_names` (the objective-free
            tables the pool workers return). Unlike :meth:`result` this
            charges **nothing** to the evaluator's evaluation counter:
            it is the seam the service layer's cross-request batch
            coalescer uses to score one merged flight and re-split it
            per request, each request applying its own objective and
            charging its own evaluator.
        """
        if self._tables is None:
            if self._futures is None:
                raise RuntimeError(
                    "batch tables were already consumed by result()"
                )
            parts = self._collect()
            self._tables = tuple(
                np.concatenate(columns) for columns in zip(*parts)
            )
            self._futures = None
        return self._tables

    def _collect(self):
        """Gather shard results, resubmitting once on executor failure.

        Only *executor-level* failures (the backend broke — a killed
        pool worker, exhausted remote retries) trigger the resubmission,
        and only once: a deterministic task-level exception would fail
        identically on a fresh pool, so it surfaces immediately. The
        shards are pure functions of their snapshotted rows, so a
        retried batch is bit-identical to an unretried one.
        """
        try:
            return [future.result() for future in self._futures]
        except Exception as error:
            executor_failed = isinstance(error, BrokenExecutor) or (
                self._pool is not None and self._pool.broken
            )
            if self._resubmit is None or self._retried or not executor_failed:
                raise
            self._retried = True
            self._futures, self._pool = self._resubmit(retrying=True)
            return [future.result() for future in self._futures]

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
            self._evaluator.evaluations += self._n
            score = self._evaluator._score_tables(tables)
            # worst_il / worst_snr are the first two wire columns in
            # every table set (BASE_TABLES order).
            self._metrics = BatchMetrics(tables[0], tables[1], score)
        return self._metrics


class _SparseModelState:
    """Per-sample CSR state for sparse-backend variation scoring.

    The weight/row-dot scratch buffers are shared across models (they
    are sized by ``n_pairs``, identical for every sample of one
    topology); only the CSR arrays and the per-CSR value scratch —
    sized by that sample's nonzero count — are per-model.
    """

    __slots__ = ("csr", "values", "coupling")

    def __init__(self, model) -> None:
        self.csr = model.csr()
        self.values = (
            np.empty(self.csr.nnz, dtype=np.float64) if self.csr.nnz else None
        )
        self.coupling = model.coupling_linear


class MappingEvaluator:
    """Matrix-backed evaluator for a :class:`MappingProblem`.

    Reduces a mapping evaluation to numpy gathers over the precomputed
    :class:`~repro.models.coupling.CouplingModel` matrices, and counts
    every evaluation (the reproduction's search-effort currency).

    Parameters
    ----------
    problem : MappingProblem
        The problem instance (CG + network + objective) to evaluate for.
    dtype : numpy dtype-like, optional
        Dtype of the coupling matrix (default ``float64``; ``float32``
        halves the memory of the O(n_pairs^2) matrix at reduced noise
        precision).
    n_workers : int, optional
        Default shard width of :meth:`evaluate_batch` /
        :meth:`submit_batch` (default 1, fully sequential). Any value
        yields bit-identical metrics; larger values only pay off for
        large batches (thousands of rows).
    backend : {"auto", "dense", "sparse"}, optional
        Noise-contraction implementation (default ``"auto"``: measured
        density decides — see the module docstring). The resolved choice
        is exposed as :attr:`backend` (never ``"auto"``).
    model_cache_dir : str, optional
        On-disk coupling-model cache directory (default: the process
        default of :func:`repro.models.coupling.get_model_cache_dir`).
        A warm cache turns the O(n_pairs^2) model build into a
        memory-mapped load; worker pools created by this evaluator
        inherit the directory.
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
    backend : str
        The resolved contraction backend, ``"dense"`` or ``"sparse"``.
    """

    def __init__(
        self,
        problem: MappingProblem,
        dtype=np.float64,
        n_workers: int = 1,
        backend: str = "auto",
        model_cache_dir: Optional[str] = None,
        executor: str = "local",
    ) -> None:
        self.problem = problem
        self.executor = parse_executor_spec(executor)
        self.cg = problem.cg
        self.network = problem.network
        self.objective = problem.objective
        self.routes = problem.routes
        self.dtype = np.dtype(dtype)
        # Resolve the process-wide default eagerly so worker pools are
        # initialized with the same cache directory this evaluator used.
        from repro.models.coupling import get_model_cache_dir

        self.model_cache_dir = (
            model_cache_dir
            if model_cache_dir is not None
            else get_model_cache_dir()
        )
        self.model = CouplingModel.for_network(
            problem.network,
            dtype=dtype,
            cache_dir=self.model_cache_dir,
            routes=self.routes,
        )
        self._edges = self.cg.edge_array()
        self._route_counts: Optional[np.ndarray] = None  # lazy, routes > 1
        self._mask = self.cg.serialization_mask()
        # The noise contraction needs the mask at the coupling dtype;
        # cast once here instead of once per evaluated chunk.
        self._mask_linear = self._mask.astype(self.model.coupling_linear.dtype)
        self._bandwidths = self.cg.bandwidth_array()
        self._bandwidth_weights = self._bandwidths / self._bandwidths.sum()
        self.n_workers = self._check_workers(n_workers)
        self.backend = self._resolve_backend(backend)
        if self.backend == "sparse":
            self._csr = self.model.csr()
            self._conf_idx, self._conf_w = self._conflict_tables()
            n_pairs = self.model.n_pairs
            self._w_scratch = np.zeros(n_pairs, dtype=np.float64)
            self._rowdot_scratch = np.zeros(n_pairs, dtype=np.float64)
            self._value_scratch: Optional[np.ndarray] = None  # (nnz,), lazy
        # Variation-robust scoring: one coupling model per perturbed
        # device sample, each resolved through the same process/disk
        # cache chain as the nominal model (the perturbed params' content
        # hashes key distinct cache entries), so repeated sweeps and
        # worker hydrations never rebuild a sample they have seen.
        self.variation = problem.variation
        self._sample_models: tuple = ()
        self._sample_sparse: tuple = ()
        if self.variation is not None:
            sample_params = self.variation.samples(problem.network.params)
            self._sample_models = tuple(
                CouplingModel.for_network(
                    problem.network.with_params(params),
                    dtype=dtype,
                    cache_dir=self.model_cache_dir,
                    routes=self.routes,
                )
                for params in sample_params
            )
            if self.backend == "sparse":
                self._sample_sparse = tuple(
                    _SparseModelState(model) for model in self._sample_models
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

    def _resolve_backend(self, backend: str) -> str:
        """Validate ``backend`` and resolve ``"auto"`` by measured density."""
        if backend not in BACKENDS:
            raise MappingError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if backend != "auto":
            return backend
        n_edges = len(self._edges)
        if SPARSE_AUTO_FACTOR * n_edges * n_edges >= self.model.nnz:
            return "sparse"
        return "dense"

    def _conflict_tables(self):
        """Padded per-victim tables of serialized aggressor edges.

        Row ``v`` lists the aggressor edge indices ``a`` with
        ``mask[v, a] == 0`` (the serialized edges plus ``v`` itself) —
        the only columns by which a victim's masked noise differs from
        the plain sum over the mapping's pairs. Padding entries point at
        edge 0 and carry weight 0, so vectorized gathers stay rectangular.
        """
        conflicts = [np.nonzero(~self._mask[v])[0] for v in range(len(self._edges))]
        width = max(1, max((len(c) for c in conflicts), default=1))
        conf_idx = np.zeros((len(conflicts), width), dtype=np.int64)
        conf_w = np.zeros((len(conflicts), width), dtype=np.float64)
        for v, c in enumerate(conflicts):
            conf_idx[v, : len(c)] = c
            conf_w[v, : len(c)] = 1.0
        return conf_idx, conf_w

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

        Returns
        -------
        BatchMetrics
            Per-row worst insertion loss, worst SNR and objective score.

        Notes
        -----
        **Bit-identical for any** ``n_workers``: every reduction (noise
        contraction, per-row minima/means, the bandwidth-weighted dot
        product) runs within a row, so splitting rows across workers
        cannot change any result, only the wall-clock time. The batch is
        charged to :attr:`evaluations` exactly once either way.
        """
        return self.submit_batch(
            assignments, n_workers=n_workers, min_shard_rows=min_shard_rows
        ).result()

    def submit_batch(
        self,
        assignments: np.ndarray,
        n_workers: Optional[int] = None,
        min_shard_rows: Optional[int] = None,
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

        Returns
        -------
        PendingBatch
            Handle whose :meth:`PendingBatch.result` yields the
            :class:`BatchMetrics`, bit-identical to the sequential path,
            and charges :attr:`evaluations` on first collection.
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
                self, n_mappings, tables=self._evaluate_rows(assignments)
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

        def dispatch(retrying: bool = False):
            """Submit every shard, surviving a concurrently broken pool.

            ``get_pool`` hands back a fresh backend whenever the cached
            one broke or was released, so a bounded number of attempts
            absorbs both a worker crash between batches and a
            ``release_pools`` racing this submission from another
            thread. Nothing has produced results yet at submit time, so
            re-dispatching cannot change any value.
            """
            last_error = None
            for _attempt in range(3):
                pool = _pool.get_pool(
                    self.problem,
                    self.dtype,
                    workers,
                    self.backend,
                    model_cache_dir=self.model_cache_dir,
                    executor=self.executor,
                )
                if retrying:
                    pool.note_retry(len(shards))
                try:
                    futures = pool.map_shards(
                        _parallel.evaluate_shard_task, shards
                    )
                except Exception as error:  # noqa: BLE001 — retried bounded
                    last_error = error
                    continue
                return futures, pool
            raise last_error

        futures, pool = dispatch()
        return PendingBatch(
            self, n_mappings, futures=futures, pool=pool, resubmit=dispatch
        )

    def _evaluate_rows(self, assignments: np.ndarray):
        """Score validated rows sequentially, without counting.

        Returns the per-row metric tables named by :attr:`table_names`
        (in that order); used by the inline path, and by pool workers
        scoring one shard each (objective-free — the score is applied by
        whoever collects the tables).
        """
        n_mappings = assignments.shape[0]
        chunk = self._chunk_rows()
        out = {
            name: np.empty(n_mappings, dtype=np.float64)
            for name in self.table_names
        }
        for start in range(0, n_mappings, chunk):
            stop = min(start + chunk, n_mappings)
            self._evaluate_chunk(
                assignments[start:stop],
                {name: column[start:stop] for name, column in out.items()},
            )
        return tuple(out[name] for name in self.table_names)

    def _chunk_rows(self) -> int:
        """Mappings per chunk keeping per-chunk transients within budget.

        Dense: the (M, E, E) gather dominates, sized by the coupling
        matrix's actual element width (float32 models get twice the rows
        of float64). Sparse: the per-mapping matvec reuses fixed scratch
        buffers, so only the (M, E, K) conflict gather scales with the
        chunk.
        """
        n_edges = len(self._edges)
        itemsize = self.model.coupling_linear.dtype.itemsize
        if self.backend == "sparse":
            width = max(1, n_edges * self._conf_idx.shape[1] * 3)
            return max(1, _CHUNK_BYTES // (itemsize * width))
        return max(1, _CHUNK_BYTES // max(1, itemsize * n_edges * n_edges))

    def _pair_table(self, assignments: np.ndarray) -> np.ndarray:
        """(M, E) flat model-slot indices of a chunk of design vectors.

        Pair indices depend only on the mapping and the topology (and,
        for routed evaluators, the per-edge route genes riding in the
        vector's tail), so one table serves the nominal model and every
        variation sample. At ``routes == 1`` the gene offset vanishes
        and this is exactly the legacy tile-pair table.
        """
        src_tiles = assignments[:, self._edges[:, 0]]
        dst_tiles = assignments[:, self._edges[:, 1]]
        pairs = self.model.pair_indices(src_tiles, dst_tiles)
        if self.routes > 1:
            pairs = pairs + assignments[:, self.cg.n_tasks:]
        return pairs

    def _tables_from_pairs(self, pairs, model=None, sparse_state=None):
        """(il, snr, noise, signal) tables of shape (M, E) for one model.

        ``model=None`` scores against the nominal coupling model with
        the evaluator's own scratch state; variation sampling passes
        each perturbed sample model (and, in sparse mode, its CSR state)
        through the same kernels, so every sample inherits the
        row-local-reduction determinism guarantees.
        """
        if model is None:
            model = self.model
        il = model.insertion_loss_db[pairs]
        signal = model.signal_linear[pairs]
        if self.backend == "sparse":
            noise = self._sparse_noise(pairs, sparse_state)
        else:
            noise = self._dense_noise(pairs, model.coupling_linear)
        with np.errstate(divide="ignore"):
            snr = 10.0 * np.log10(signal / np.where(noise > 0.0, noise, 1.0))
        snr = np.where(noise > 0.0, snr, SNR_CAP_DB)
        return il, snr, noise, signal

    def _edge_tables(self, assignments: np.ndarray):
        """(il, snr, noise, signal) nominal-model tables for a chunk."""
        return self._tables_from_pairs(self._pair_table(assignments))

    def _dense_noise(
        self, pairs: np.ndarray, coupling: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Masked noise contraction over a dense coupling matrix.

        NOT einsum, and NOT a native ``grid.sum(axis=2)``: both block
        their accumulation differently depending on the batch size M,
        which would break the bit-identical-for-any-shard-split
        guarantee of ``evaluate_batch``. An in-place multiply plus the
        sequential :func:`_row_sum` reduces each (m, v) row in an order
        that depends only on E.
        """
        if coupling is None:
            coupling = self.model.coupling_linear
        grid = coupling[pairs[:, :, None], pairs[:, None, :]]
        grid *= self._mask_linear
        return _row_sum(grid)

    def _sparse_noise(
        self, pairs: np.ndarray, state: Optional[_SparseModelState] = None
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
        the sparse backend keeps the bit-identical-for-any-``n_workers``
        guarantee.

        The subtraction cancels exactly-equal magnitudes for victims
        whose true masked noise is zero (isolated communications), which
        would leave ~1e-19 residue and defeat the SNR cap; any entry
        tiny relative to its unmasked sum is therefore recomputed as the
        cancellation-free masked sum of non-negative couplings, which is
        exactly 0.0 when the true noise is.
        """
        n_moves, n_edges = pairs.shape
        if state is None:
            csr = self._csr
            if self._value_scratch is None and csr.nnz:
                self._value_scratch = np.empty(csr.nnz, dtype=np.float64)
            values = self._value_scratch
            coupling = self.model.coupling_linear
        else:
            csr = state.csr
            values = state.values
            coupling = state.coupling
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
        for k in range(self._conf_idx.shape[1]):
            conflict_pairs = pairs[:, self._conf_idx[:, k]]
            conflict += coupling[pairs, conflict_pairs] * self._conf_w[:, k]
        noise = unmasked - conflict
        suspect_m, suspect_v = np.nonzero(noise <= 1e-12 * unmasked)
        if len(suspect_m):
            grid_rows = np.ascontiguousarray(
                coupling[pairs[suspect_m, suspect_v][:, None], pairs[suspect_m]]
            ) * self._mask_linear[suspect_v]
            # _row_sum keeps the recomputed value independent of how
            # many suspects share the chunk.
            noise[suspect_m, suspect_v] = _row_sum(grid_rows)
        return noise

    def _laser_power_table(self, il: np.ndarray) -> np.ndarray:
        """Per-row negated laser-power budget from the (M, E) IL table.

        Every CG edge needs transmit power proportional to the
        reciprocal of its end-to-end transmission — ``10^(-il_db/10)``,
        with ``il_db <= 0`` — and the mapping's budget sums the per-edge
        requirements (PROTEUS-style worst-case provisioning: the laser
        must drive all communications at their loss). The score is the
        negated budget in dB, so *maximizing* it minimizes the
        provisioned laser power. Row-local (an elementwise power plus
        the sequential :func:`_row_sum` of width E), so the table keeps
        the bit-identical-for-any-chunk/shard guarantee.
        """
        required = np.power(10.0, il * -0.1)
        return -10.0 * np.log10(_row_sum(required))

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
        for j, model in enumerate(self._sample_models):
            state = self._sample_sparse[j] if self._sample_sparse else None
            _il, snr, _noise, _signal = self._tables_from_pairs(
                pairs, model=model, sparse_state=state
            )
            worst[:, j] = snr.min(axis=1)
        if self.variation.quantile is None:
            return _row_sum(worst) / n_samples
        return np.quantile(worst, self.variation.quantile, axis=1)

    def _evaluate_chunk(self, assignments, out):
        """Fill one chunk's slice of every metric table in ``out``."""
        pairs = self._pair_table(assignments)
        il, snr, _noise, _signal = self._tables_from_pairs(pairs)
        out["worst_il"][:] = il.min(axis=1)
        out["worst_snr"][:] = snr.min(axis=1)
        out["mean_snr"][:] = _row_sum(snr) / snr.shape[1]
        out["weighted_il"][:] = _row_sum(il * self._bandwidth_weights)
        out["laser_power"][:] = self._laser_power_table(il)
        if "robust_snr" in out:
            out["robust_snr"][:] = self._robust_table(pairs)

    def _score_tables(self, tables) -> np.ndarray:
        """The objective score column of a :attr:`table_names`-ordered tuple."""
        return tables[self._score_index]

    def _score_named(self, tables: dict) -> np.ndarray:
        """The objective score from a ``{table name: column}`` dict.

        The delta engine's dispatch seam: it reconstructs the base
        tables from its incremental per-edge state and scores them here,
        so objective dispatch lives in exactly one place.
        """
        return tables[self.table_names[self._score_index]]

    # -- single evaluation -----------------------------------------------------------

    def evaluate(
        self, mapping: Union[Mapping, np.ndarray], with_edges: bool = False
    ) -> MappingMetrics:
        """Evaluate one mapping, optionally keeping per-edge detail.

        Routed evaluators additionally accept a widened joint vector
        (``n_tasks + n_edges`` entries); its assignment head is
        validated exactly like a plain mapping.
        """
        if isinstance(mapping, Mapping):
            assignment = mapping.assignment
        else:
            candidate = np.asarray(mapping)
            if (
                self.routes > 1
                and candidate.ndim == 1
                and len(candidate) == self.cg.n_tasks + self.n_edges
            ):
                assignment = np.concatenate(
                    [
                        Mapping(
                            self.cg,
                            candidate[: self.cg.n_tasks],
                            self.problem.n_tiles,
                        ).assignment,
                        candidate[self.cg.n_tasks:].astype(np.int64),
                    ]
                )
            else:
                assignment = Mapping(
                    self.cg, candidate, self.problem.n_tiles
                ).assignment
        batch = self._check_batch(assignment[None, :])
        pairs = self._pair_table(batch)
        il, snr, noise, signal = self._tables_from_pairs(pairs)
        self.evaluations += 1
        # The same _row_sum kernels as _evaluate_chunk, on the 1-row
        # batch: row i of any batch and evaluate() of row i agree bit
        # for bit (the objective contract suite enforces this).
        columns = {
            "worst_il": float(il.min()),
            "worst_snr": float(snr.min()),
            "mean_snr": float(_row_sum(snr)[0] / snr.shape[1]),
            "weighted_il": float(_row_sum(il * self._bandwidth_weights)[0]),
            "laser_power": float(self._laser_power_table(il)[0]),
        }
        robust = None
        if self.variation is not None:
            robust = float(self._robust_table(pairs)[0])
            columns["robust_snr"] = robust
        score = columns[self.table_names[self._score_index]]
        edges = None
        if with_edges:
            edges = EdgeMetrics(il[0].copy(), snr[0].copy(), noise[0].copy(), signal[0].copy())
        return MappingMetrics(
            columns["worst_il"],
            columns["worst_snr"],
            columns["mean_snr"],
            columns["weighted_il"],
            score,
            edges,
            laser_power_db=columns["laser_power"],
            robust_snr_db=robust,
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
        src_tiles = vector[self._edges[:, 0]]
        dst_tiles = vector[self._edges[:, 1]]
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
        menus = self.edge_menu_sizes(assignment)
        genes = rng.integers(0, menus, dtype=np.int64)
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
        if self._route_counts is None:
            self._route_counts = self.network.route_counts(self.routes)
        src_tiles = batch[:, self._edges[:, 0]]
        dst_tiles = batch[:, self._edges[:, 1]]
        menus = self._route_counts[src_tiles * self.n_tiles + dst_tiles]
        genes = rng.integers(0, menus, dtype=np.int64)
        return np.hstack([batch, genes])

    def moves_for(self, vector: np.ndarray) -> list:
        """The full move neighbourhood of a design vector.

        At ``routes == 1`` this is exactly
        :func:`~repro.core.moves.swap_moves` of the assignment — same
        moves, same order — so mapping-only searches are unchanged.
        Routed evaluators append the reroute moves of every edge whose
        current tile pair offers more than one route.
        """
        from repro.core.moves import reroute_moves, swap_moves

        vector = np.asarray(vector)
        moves = swap_moves(vector[: self.cg.n_tasks], self.n_tiles)
        if self.routes > 1:
            moves += reroute_moves(
                vector, self.cg.n_tasks, self.edge_menu_sizes(vector)
            )
        return moves

    def reset_count(self) -> None:
        """Zero the evaluation counter (used between algorithm runs)."""
        self.evaluations = 0

    def close(self) -> None:
        """Release the persistent worker pools serving this problem.

        Sharded :meth:`evaluate_batch` calls lazily create process pools
        that otherwise stay warm until LRU eviction or interpreter exit;
        ``close()`` shuts the ones for this problem (at this dtype) down
        deterministically. Safe to call when no pool was ever created,
        and the evaluator remains usable afterwards (a later sharded
        call simply builds a fresh pool). Also usable as a context
        manager: ``with MappingEvaluator(problem) as evaluator: ...``.
        """
        from repro.core import pool as _pool

        _pool.release_pools(self.problem, self.dtype)

    def __enter__(self) -> "MappingEvaluator":
        """Enter a ``with`` block; :meth:`close` runs on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release this problem's pools on ``with``-block exit."""
        self.close()
