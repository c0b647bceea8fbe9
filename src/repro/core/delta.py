"""Incremental (delta) mapping evaluation for local-search strategies.

The full :class:`~repro.core.evaluator.MappingEvaluator` scores a mapping's
SNR by gathering an ``(M, E, E)`` coupling grid and contracting it against
the serialization mask — every candidate pays O(E^2) even when it differs
from the incumbent by a single swap. Local-search strategies (R-PBLA, tabu,
simulated annealing) only ever look at such one-move neighbours, and a
move touching one or two tasks only changes the tile pairs of the CG edges
*incident* to those tasks. :class:`DeltaEvaluator` exploits that locality
so scoring a move costs O(E * |affected edges|) instead of O(E^2).

State kept for the incumbent assignment (all shape ``(E,)`` unless noted):

* ``_pairs``    — flat tile-pair index of every CG edge;
* ``_il``       — per-edge insertion loss in dB (eq. 3 terms);
* ``_signal``   — per-edge end-to-end linear transmission;
* ``_noise``    — per-edge crosstalk-noise accumulator: the masked sum
  ``noise[v] = sum_a mask[v, a] * C[pairs[v], pairs[a]]``.

Only SNR-family objectives (:attr:`~repro.core.objectives.Objective.is_snr_based`)
keep the noise state: ``_noise`` plus the victim-column matrix and the
coupling row sums the update rule below reads. A loss-family engine
(``loss``, ``weighted_loss``, ``laser_power``) scores from the IL table
alone, so it never gathers from the coupling matrix, never runs the
noise update and never builds the dense transpose.

Update rule for a move (relocation or swap) with affected edge set ``A``
(the edges incident to the moved task(s), deduplicated):

* an *unaffected* victim ``v`` keeps its pair, so only the aggressor terms
  of edges in ``A`` change::

      noise'[v] = noise[v] + sum_{a in A} mask[v, a]
                  * (C[pairs[v], pairs'[a]] - C[pairs[v], pairs[a]])

* an *affected* victim changed its own pair, so its whole row is
  recomputed against the moved pair table::

      noise'[v] = sum_a mask[v, a] * C[pairs'[v], pairs'[a]]

  factored, to avoid an O(E) gather per affected edge, as the
  precomputed dense row sum ``R[q] = sum_a C[q, pairs[a]]`` at the
  victim's new pair, plus the cross terms the move displaced, minus the
  victim's serialized/self columns (the zeros of its mask row).

No symmetry of the serialization mask is assumed: both directions use the
victim's own mask row, which is what keeps the delta path numerically
identical to the full einsum (the mask happens to be symmetric today, but
the update rule would survive an asymmetric one).

:meth:`DeltaEvaluator.score_moves` applies the rule to a whole sampled
neighbourhood in one vectorized pass (padded per-task incident-edge
tables, dummy-column scatters), and :meth:`DeltaEvaluator.commit` applies
it to the incumbent state in place.

Fallback to full evaluation happens in exactly three places:

* :meth:`DeltaEvaluator.reset` — a new incumbent (or a restart) rebuilds
  every table from the coupling matrices;
* every ``refresh_interval`` commits the tables are rebuilt from scratch,
  which bounds floating-point drift of the noise accumulators (the
  unaffected-victim rule is a running ``+=``; with float64 the drift over
  hundreds of commits is ~1e-13 dB, and the periodic rebuild makes it
  impossible for it to ever matter);
* strategies constructed with ``use_delta=False`` skip this module
  entirely and score candidates through ``evaluate_batch``.

The engine restates no scoring rule: resets slot through the evaluator's
pair table, and scores reduce through its SNR formula and metric tables,
bit-identical to full evaluation of the same per-edge values.

Kernel awareness (PR 4): when the wrapped evaluator resolved to the
sparse noise kernel, the dense row sums ``R[q] = sum_e C[q,
pairs[e]]`` are produced by consuming the evaluator's nominal CSR state
(:meth:`~repro.models.coupling.CouplingCSR.row_dots` against the
incumbent's pair counts) instead of walking rows of the dense transpose,
and the per-commit updates read the affected coupling columns with a
strided gather of the dense matrix. The ``O(n_pairs^2)`` contiguous
transpose is therefore never built in sparse mode — on a 64-tile mesh
that is 134 MB per process (3.4 GB on a 144-tile mesh) the delta path no
longer costs.

Evaluation accounting is unchanged: scoring ``k`` moves charges ``k``
evaluations to the wrapped evaluator, a reset charges one (it replaces the
full evaluation a strategy would otherwise spend on the new incumbent),
and a commit charges nothing (the committed move was already scored) — so
budget comparisons between delta and full runs stay fair.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

import repro.core.evaluator as _evaluator_module
from repro.core.evaluator import MappingEvaluator, _snr_db
from repro.core.moves import REROUTE, Move, apply_move
from repro.core.objectives import spec_for
from repro.errors import MappingError

__all__ = [
    "DeltaEvaluator",
    "delta_engine",
    "incumbent_score",
    "score_neighbourhood",
]


def delta_engine(
    evaluator: MappingEvaluator,
    use_delta: bool = True,
    refresh_interval: Optional[int] = 64,
) -> "Optional[DeltaEvaluator]":
    """A :class:`DeltaEvaluator` when the objective supports one, else None.

    The single construction seam strategies use: objectives whose
    :class:`~repro.core.objectives.ObjectiveSpec` declares
    ``supports_delta=False`` (e.g. ``robust_snr``, whose score depends on
    every variation sample's noise field) silently fall back to full
    batch evaluation — the same path ``use_delta=False`` takes — instead
    of raising deep inside a strategy.
    """
    if not use_delta or not spec_for(evaluator.objective).supports_delta:
        return None
    return DeltaEvaluator(evaluator, refresh_interval=refresh_interval)


def incumbent_score(engine, evaluator, assignment) -> float:
    """Score a fresh incumbent via the engine (reset) or the full path.

    Both branches charge exactly one evaluation, so strategies can call
    this wherever they previously evaluated a single new starting point.
    """
    if engine is not None:
        return engine.reset(assignment)
    return float(
        evaluator.evaluate_batch(assignment[None, :], score_only=True).score[0]
    )


def score_neighbourhood(engine, evaluator, current, moves) -> np.ndarray:
    """Score ``moves`` against ``current`` via the engine or the full path.

    The engine must already hold ``current`` as its incumbent. Both
    branches charge ``len(moves)`` evaluations.
    """
    if engine is not None:
        return engine.score_moves(moves)
    candidates = np.stack([apply_move(current, m) for m in moves])
    return evaluator.evaluate_batch(candidates, score_only=True).score


class DeltaEvaluator:
    """Incremental evaluator wrapping a :class:`MappingEvaluator`.

    Maintains per-edge pair indices, signal/IL tables and (for
    SNR-family objectives only) noise accumulators for one incumbent
    assignment; see the module docstring for the state kept and the
    update rule.
    """

    def __init__(
        self, evaluator: MappingEvaluator, refresh_interval: Optional[int] = 64
    ) -> None:
        if refresh_interval is not None and refresh_interval < 1:
            raise MappingError("refresh_interval must be >= 1 or None")
        spec = spec_for(evaluator.objective)
        if not spec.supports_delta:
            raise MappingError(
                f"objective {evaluator.objective.value!r} declares no "
                "incremental (delta) support; use delta_engine() to fall "
                "back to full batch evaluation"
            )
        self._score_table = spec.table
        # Only SNR-family scores read noise; loss-family engines keep no
        # noise state and never touch the coupling matrix.
        self._tracks_noise = evaluator.objective.is_snr_based
        self._ev = evaluator
        self._model = evaluator.model
        self._n_tiles = evaluator.n_tiles
        self._routes = evaluator.routes
        self._edges = evaluator._edges
        self._E = len(self._edges)
        # Sparse-kernel evaluators share their nominal CSR state: row sums
        # come from CSR row dots instead of dense-transpose walks, so the
        # O(n_pairs^2) transpose is never materialized in sparse mode.
        self._sparse = evaluator._sparse
        self._maskf = evaluator._mask_linear  # read-only share, hoisted there
        self._refresh_interval = refresh_interval
        self._commits = 0
        self._assignment: Optional[np.ndarray] = None

        # Padded incident-edge table: row t lists the CG edges touching
        # task t; the extra last row is all-padding and stands in for the
        # missing partner of a relocation (other == -1).
        n_tasks = evaluator.n_tasks
        incident = [[] for _ in range(n_tasks)]
        for e, (s, d) in enumerate(self._edges):
            incident[int(s)].append(e)
            incident[int(d)].append(e)
        width = max((len(lst) for lst in incident), default=1) or 1
        self._inc = np.full((n_tasks + 1, width), -1, dtype=np.int64)
        for t, lst in enumerate(incident):
            self._inc[t, : len(lst)] = lst

        if not self._tracks_noise:
            return
        # The mask is gathered both by victim row and by aggressor column;
        # a contiguous transpose keeps the column walk row-local (and does
        # not assume the serialization mask is symmetric).
        self._maskfT = np.ascontiguousarray(self._maskf.T)
        # Padded conflict table: row v lists the aggressor columns a with
        # mask[v, a] == 0 (the serialized edges, plus v itself) — the only
        # terms by which v's masked noise row differs from the full row
        # sum. Padding points at the dummy column E and carries weight 0.
        n_edges = self._E
        conflicts = [np.nonzero(~evaluator._mask[v, :])[0] for v in range(n_edges)]
        k_width = max(1, max(len(c) for c in conflicts))
        self._conf_row = np.full((n_edges, k_width), n_edges, dtype=np.int64)
        self._conf_w = np.zeros((n_edges, k_width), dtype=self._maskf.dtype)
        for v, c in enumerate(conflicts):
            self._conf_row[v, : len(c)] = c
            self._conf_w[v, : len(c)] = 1.0

    # -- incumbent state ---------------------------------------------------------

    @property
    def evaluator(self) -> MappingEvaluator:
        """The wrapped full evaluator (budget counting happens there)."""
        return self._ev

    @property
    def assignment(self) -> np.ndarray:
        """A copy of the incumbent assignment."""
        self._require_incumbent()
        return self._assignment.copy()

    @property
    def score(self) -> float:
        """The incumbent's score under the problem objective."""
        self._require_incumbent()
        noise = None if self._noise is None else self._noise[None, :]
        return float(
            self._scores_from(self._il[None, :], self._signal[None, :], noise)[0]
        )

    def _require_incumbent(self) -> None:
        if self._assignment is None:
            raise MappingError(
                "DeltaEvaluator has no incumbent; call reset(assignment) first"
            )

    def reset(self, assignment: np.ndarray, count: bool = True) -> float:
        """Set a new incumbent, rebuilding all tables (full evaluation).

        Charges one evaluation unless ``count=False`` (use that when the
        incumbent's score was already paid for, e.g. SA calibration).
        """
        array = np.array(assignment, dtype=np.int64, copy=True)
        if array.shape == (self._ev.n_tasks,) and self._routes > 1:
            # Plain assignment on a routed engine: base route everywhere.
            array = np.concatenate(
                [array, np.zeros(self._E, dtype=np.int64)]
            )
        if array.shape != (self._ev.vector_width,):
            raise MappingError(
                f"assignment must have one tile per task "
                f"({self._ev.n_tasks}), got shape {array.shape}"
            )
        self._assignment = array
        self._commits = 0
        self._rebuild_tables()
        if count:
            self._ev.evaluations += 1
        return self.score

    def _rebuild_tables(self) -> None:
        """Full fallback: recompute every per-edge table exactly."""
        self._pairs = self._ev._pair_table(self._assignment)
        self._il = self._model.insertion_loss_db[self._pairs].copy()
        self._signal = self._model.signal_linear[self._pairs].copy()
        if not self._tracks_noise:
            self._noise = None
            return
        grid = self._model.coupling_linear[
            self._pairs[:, None], self._pairs[None, :]
        ]
        self._noise = np.einsum("ve,ve->v", grid, self._maskf)
        # Victim-column matrix: cols[q, v] = C[pairs[v], q] — the noise a
        # candidate aggressor pair q injects into each incumbent edge.
        # Row-contiguous, so the per-move gathers below are memcpy-like
        # row copies instead of scattered reads of the full matrix.
        self._cols_inc = np.ascontiguousarray(
            self._model.coupling_linear[self._pairs].T
        )
        # Row sums of the coupling matrix over the incumbent's pair
        # columns: R[q] = sum_e C[q, pairs[e]], the dense part of an
        # affected victim's recomputed noise row. Sparse mode consumes
        # the CSR rows (one O(nnz) stream against the incumbent's pair
        # counts); dense mode walks rows of the contiguous transpose.
        if self._sparse is not None:
            counts = np.bincount(
                self._pairs, minlength=self._model.n_pairs
            ).astype(np.float64)
            self._rowsum = self._sparse.csr.row_dots(
                counts, scratch=self._sparse.values
            )
        else:
            self._rowsum = self._model.coupling_linear_T[self._pairs].sum(axis=0)
        # Magnitude of the terms the delta updates add and subtract —
        # the cancellation guard's scale. Captured here, where the row
        # sums are exact, NOT from per-move quantities (which may
        # themselves be cancellation residue near zero).
        self._noise_scale = float(self._rowsum.max(initial=0.0))

    # -- scoring ---------------------------------------------------------------

    def score_moves(self, moves: Iterable[Move]) -> np.ndarray:
        """Score a batch of moves against the incumbent.

        Returns one score per move (same objective and same numbers as
        ``evaluate_batch`` on the moved assignments, up to float
        associativity) and charges ``len(moves)`` evaluations.
        """
        self._require_incumbent()
        moves = list(moves)
        n_moves = len(moves)
        if n_moves == 0:
            return np.empty(0, dtype=np.float64)
        tasks = np.fromiter((m[0] for m in moves), dtype=np.int64, count=n_moves)
        tiles = np.fromiter((m[1] for m in moves), dtype=np.int64, count=n_moves)
        others = np.fromiter((m[2] for m in moves), dtype=np.int64, count=n_moves)
        n_edges = self._E
        aff = self._affected_edges(tasks, others)
        # Process moves in descending order of affected-set size: each
        # chunk is padded to its own maximum, so a few high-degree moves
        # don't widen the whole batch.
        order = np.argsort(-(aff >= 0).sum(axis=1), kind="stable")
        width = aff.shape[1]
        per_move = 8 * max(1, n_edges * width) * 6
        chunk = max(1, _evaluator_module._CHUNK_BYTES // per_move)
        scores = np.empty(n_moves, dtype=np.float64)
        for start in range(0, n_moves, chunk):
            sel = order[start : start + chunk]
            il, signal, noise, _, _, _ = self._move_tables(
                tasks[sel], tiles[sel], others[sel], aff[sel]
            )
            scores[sel] = self._scores_from(il, signal, noise)
        self._ev.evaluations += n_moves
        return scores

    def commit(self, move: Move) -> float:
        """Apply a move to the incumbent state in place; returns the new score.

        Charges no evaluation: the move was already scored when its
        neighbourhood was. Every ``refresh_interval`` commits the tables
        are rebuilt from scratch to bound accumulator drift.
        """
        self._require_incumbent()
        task, tile, other = int(move[0]), int(move[1]), int(move[2])
        il, signal, noise, aff, new_pa, _ = self._move_tables(
            np.array([task]), np.array([tile]), np.array([other])
        )
        n_edges = self._E
        valid = aff[0] >= 0
        idx = aff[0][valid]
        old_pairs = self._pairs[idx]
        self._pairs[idx] = new_pa[0][valid]
        self._il = il[0, :n_edges].copy()
        self._signal = signal[0, :n_edges].copy()
        if self._tracks_noise:
            self._noise = noise[0, :n_edges].copy()
            coupling = self._model.coupling_linear
            # The moved edges changed their pair, so their victim columns
            # and their contribution to the dense row sums must follow.
            # Dense mode reads the changed columns as rows of the
            # contiguous transpose; sparse mode (which never builds the
            # transpose) uses a strided column gather of the dense matrix
            # — a few columns per commit, so the stride cost is
            # negligible.
            self._cols_inc[:, idx] = coupling[self._pairs[idx], :].T
            if self._sparse is not None:
                self._rowsum += coupling[:, self._pairs[idx]].sum(
                    axis=1, dtype=np.float64
                )
                self._rowsum -= coupling[:, old_pairs].sum(
                    axis=1, dtype=np.float64
                )
            else:
                coupling_T = self._model.coupling_linear_T
                self._rowsum += coupling_T[self._pairs[idx]].sum(axis=0)
                self._rowsum -= coupling_T[old_pairs].sum(axis=0)
        if other >= 0:
            self._assignment[other] = self._assignment[task]
        self._assignment[task] = tile
        self._commits += 1
        if (
            self._refresh_interval is not None
            and self._commits % self._refresh_interval == 0
        ):
            self._rebuild_tables()
        return self.score

    # -- internals -------------------------------------------------------------

    def _affected_edges(self, tasks, others) -> np.ndarray:
        """(M, L) table of CG edges whose slot a move changes, -1 padded,
        valid entries first.

        A reroute move (``other == REROUTE``, ``task`` = gene slot
        index) affects exactly the rerouted edge; its first element
        indexes past the task range, so it reads the all-pad incident
        row and the edge is patched in afterwards.
        """
        n_tasks = self._ev.n_tasks
        is_reroute = others == REROUTE
        block1 = self._inc[np.where(is_reroute, n_tasks, tasks)]
        block2 = self._inc[np.where(others >= 0, others, n_tasks)]
        # An edge joining the two moved tasks appears in both incident
        # lists; drop the second copy so its delta isn't applied twice.
        safe2 = np.where(block2 >= 0, block2, 0)
        duplicate = (self._edges[safe2, 0] == tasks[:, None]) | (
            self._edges[safe2, 1] == tasks[:, None]
        )
        block2 = np.where((block2 >= 0) & ~duplicate, block2, -1)
        aff = np.concatenate([block1, block2], axis=1)
        aff = -np.sort(-aff, axis=1)
        if is_reroute.any():
            aff[is_reroute, 0] = tasks[is_reroute] - n_tasks
        return aff

    def _move_tables(self, tasks, tiles, others, aff=None):
        """Per-move ``(M, E+1)`` IL/signal/noise tables (column E is a
        dummy scatter target for padding entries; callers slice it off).

        The noise table is ``None`` for loss-family engines, which
        return right after the IL/signal scatter.
        """
        a = self._assignment
        n_edges = self._E
        n_moves = len(tasks)

        if aff is None:
            aff = self._affected_edges(tasks, others)
        # Compact: trailing all-pad columns dropped.
        width = max(1, int((aff >= 0).sum(axis=1).max()))
        aff = aff[:, :width]
        pad = aff < 0
        aff0 = np.where(pad, 0, aff)

        src = self._edges[aff0, 0]
        dst = self._edges[aff0, 1]
        t = tasks[:, None]
        o = others[:, None]
        target = tiles[:, None]
        task_tile = a[tasks][:, None]
        swap = o >= 0
        src_tiles = np.where(
            src == t, target, np.where(swap & (src == o), task_tile, a[src])
        )
        dst_tiles = np.where(
            dst == t, target, np.where(swap & (dst == o), task_tile, a[dst])
        )
        old_pa = self._pairs[aff0]
        if self._routes == 1:
            new_pa = np.where(pad, old_pa, src_tiles * self._n_tiles + dst_tiles)
        else:
            # Mapping moves carry the edge's gene to its new tile pair;
            # a reroute keeps the pair and overwrites the gene.
            new_pa = np.where(
                pad,
                old_pa,
                (src_tiles * self._n_tiles + dst_tiles) * self._routes
                + old_pa % self._routes,
            )
            is_reroute = others == REROUTE
            if is_reroute.any():
                rr = np.nonzero(is_reroute)[0]
                rr_new = (
                    old_pa[rr] // self._routes
                ) * self._routes + tiles[rr][:, None]
                new_pa[rr] = np.where(pad[rr], old_pa[rr], rr_new)

        # Padding and duplicates scatter into the dummy column.
        scatter = np.where(pad, n_edges, aff)
        il = np.empty((n_moves, n_edges + 1), dtype=np.float64)
        il[:, :n_edges] = self._il[None, :]
        np.put_along_axis(il, scatter, self._model.insertion_loss_db[new_pa], axis=1)
        signal = np.empty((n_moves, n_edges + 1), dtype=np.float64)
        signal[:, :n_edges] = self._signal[None, :]
        np.put_along_axis(signal, scatter, self._model.signal_linear[new_pa], axis=1)
        if not self._tracks_noise:
            return il, signal, None, aff, new_pa, scatter

        # Unaffected victims: aggressor terms of the affected edges change
        # under the victim's unchanged pair. Both coupling gathers are
        # contiguous row copies of the per-incumbent victim-column matrix
        # (new aggressor pair row minus old aggressor pair row). Padding
        # entries contribute 0 because their new pair equals their old
        # one.
        diff = self._cols_inc[new_pa] - self._cols_inc[old_pa]  # (M, L, E)
        base = np.einsum("mle,mle->me", self._maskfT[aff0], diff)
        noise = np.empty((n_moves, n_edges + 1), dtype=base.dtype)
        noise[:, :n_edges] = self._noise[None, :] + base

        # Affected victims: recompute the full masked row sum, but as the
        # dense precomputed row sum R[new pair] plus two sparse terms —
        # the columns the move itself displaced (cross terms among the
        # affected edges; zero for padding, whose new pair is its old
        # one), minus the victim's serialized/self columns at their moved
        # pairs.
        coupling = self._model.coupling_linear
        pairs_moved = np.empty((n_moves, n_edges + 1), dtype=np.int64)
        pairs_moved[:, :n_edges] = self._pairs[None, :]
        pairs_moved[:, n_edges] = 0  # dummy column: weight-0 gathers land here
        np.put_along_axis(pairs_moved, scatter, new_pa, axis=1)
        cross = (
            coupling[new_pa[:, :, None], new_pa[:, None, :]]
            - coupling[new_pa[:, :, None], old_pa[:, None, :]]
        ).sum(axis=2)
        conf = self._conf_row[aff0]  # (M, L, K) serialized columns, pad -> E
        conf_pairs = pairs_moved[
            np.arange(n_moves)[:, None, None], conf
        ]
        conf_term = np.einsum(
            "mlk,mlk->ml",
            coupling[new_pa[:, :, None], conf_pairs],
            self._conf_w[aff0],
        )
        dense = self._rowsum[new_pa]
        full = dense + cross - conf_term
        np.put_along_axis(noise, scatter, full, axis=1)

        # Cancellation guard: both the incremental update and the
        # dense-minus-sparse reconstruction subtract equal-magnitude
        # terms, so a victim whose true masked noise is exactly zero
        # (isolated communications) can come out as ~1e-19 residue — and
        # the SNR cap (evaluator._snr_db) keys on noise > 0. Any entry that
        # is tiny relative to the magnitude of the summed terms (the
        # exact row-sum scale captured at the last rebuild) is recomputed
        # as the cancellation-free masked sum of non-negative couplings,
        # which is exactly 0.0 when the true noise is.
        tolerance = 1e-12 * self._noise_scale
        suspect_m, suspect_v = np.nonzero(noise[:, :n_edges] <= tolerance)
        if len(suspect_m):
            victim_pairs = pairs_moved[suspect_m, suspect_v]
            grid_rows = coupling[
                victim_pairs[:, None], pairs_moved[suspect_m, :n_edges]
            ]
            noise[suspect_m, suspect_v] = np.einsum(
                "ke,ke->k", grid_rows, self._maskf[suspect_v]
            )
        return il, signal, noise, aff, new_pa, scatter

    def _scores_from(self, il, signal, noise) -> np.ndarray:
        """Objective scores from (M, >= E) per-edge tables.

        Reads the first E columns (``_move_tables`` appends a dummy
        one) and reduces them through the evaluator's own SNR formula
        and metric table (the spec's ``table`` name, resolved at
        construction), so the scores are bit-identical to the full
        pipeline's for the same per-edge values. ``noise`` is ``None``
        for loss-family engines, which never compute SNR.
        """
        n_edges = self._E
        snr = None
        if noise is not None:
            snr = _snr_db(signal[:, :n_edges], noise[:, :n_edges])
        return self._ev._table(self._score_table, il[:, :n_edges], snr)
