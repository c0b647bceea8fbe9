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
* ``_noise``    — per-edge crosstalk noise: the masked sum
  ``noise[v] = sum_a mask[v, a] * C[pairs[v], pairs[a]]``.

Only SNR-family objectives (:attr:`~repro.core.objectives.Objective.is_snr_based`)
keep the signal and noise state: ``_signal``, ``_noise``, the
victim-column matrix and the coupling row sums the update rule below
reads. A loss-family engine (``loss``, ``weighted_loss``,
``laser_power``) scores from the IL table alone, so it never gathers
from the coupling matrix, never runs the noise update and never builds
the dense transpose.

Which edges a move touches depends only on the moved task(s), never on
the incumbent. The evaluator therefore builds, once, a table of
*affected-edge rows* (``CommunicationGraph.affected_rows``) that every
engine over it shares: row ``t * (n_tasks + 1) + p`` lists the CG edges
incident to task ``t`` or to its swap partner ``p`` (``p == n_tasks`` for
a relocation), an edge joining the two listed once, in descending edge
order and -1 padded. A call looks its moves' rows up instead of
assembling them; a reroute reads the all-padding row and patches its
one edge in. At most ``(n_tasks + 1)^2`` rows of a few int64 entries:
70 KB for the paper's largest CG.

Update rule for scoring a move (relocation or swap) with affected edge
set ``A`` (the edges incident to the moved task(s), deduplicated):

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
victim's own mask row, so the update rule would survive an asymmetric
mask (the mask happens to be symmetric today).

:meth:`DeltaEvaluator.score_moves` applies the rule to a whole sampled
neighbourhood in one vectorized pass (affected-row lookups, dummy-column
scatters). Every sum over a chunk's padded affected width adds a move's
affected edges in row order and the padding's exact zeros after them
(the affected-victim cross term through the evaluator's strictly
left-to-right ``_row_sum``), so a move scores the same bits in any chunk.

Fallback to full evaluation happens in exactly two places:

* :meth:`DeltaEvaluator.reset` and :meth:`DeltaEvaluator.commit` — a
  new incumbent, a restart or a committed move rebuilds every table
  through the evaluator's own ``_pair_table`` and ``_tables_from_pairs``
  (the masked noise contraction on whichever kernel it resolved), so an
  incumbent's tables and score are exactly what ``evaluate_batch``
  gives the same assignment;
* strategies constructed with ``use_delta=False`` skip this module
  entirely and score candidates through ``evaluate_batch``.

The engine restates no scoring rule: incumbents are the evaluator's own
tables, and scores reduce through its SNR formula and metric tables,
bit-identical to full evaluation of the same per-edge values.

Kernel awareness (PR 4): when the wrapped evaluator resolved to the
sparse noise kernel, the dense row sums ``R[q] = sum_e C[q,
pairs[e]]`` are produced by consuming the evaluator's nominal CSR state
(:meth:`~repro.models.coupling.CouplingCSR.row_dots` against the
incumbent's pair counts) instead of walking rows of the dense transpose.
The ``O(n_pairs^2)`` contiguous transpose is therefore never built in
sparse mode — on a 64-tile mesh that is 134 MB per process (3.4 GB on a
144-tile mesh) the delta path no longer costs.

Evaluation accounting is unchanged: scoring ``k`` moves charges ``k``
evaluations to the wrapped evaluator, a reset charges one (it replaces the
full evaluation a strategy would otherwise spend on the new incumbent),
and a commit charges nothing (the committed move was already scored) — so
budget comparisons between delta and full runs stay fair.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional

import numpy as np

from repro.core.evaluator import MappingEvaluator, _row_sum, _snr_db
from repro.core.moves import REROUTE, Move, apply_move
from repro.core.objectives import spec_for
from repro.errors import MappingError

__all__ = [
    "DeltaEvaluator",
    "delta_engine",
    "incumbent_score",
    "score_neighbourhood",
]

#: Target bytes per :meth:`DeltaEvaluator.score_moves` chunk: a pure speed
#: budget, since a move scores the same bits in any chunk. Kept apart from
#: the batch kernel's L2-sized one: on a 2-vCPU Xeon, 2 MiB chunks scored
#: whole swap neighbourhoods of the 16 paper cells no faster for SNR
#: objectives and ~20% slower for loss-family ones.
_SCORE_CHUNK_BYTES = 64 * 1024 * 1024


def delta_engine(
    evaluator: MappingEvaluator, use_delta: bool = True
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
    return DeltaEvaluator(evaluator)


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

    ``moves`` is a sequence of move triples or an ``(M, 3)`` integer
    array. The engine must already hold ``current`` as its incumbent.
    Both branches charge ``len(moves)`` evaluations.
    """
    if engine is not None:
        return engine.score_moves(moves)
    candidates = np.stack([apply_move(current, m) for m in moves])
    return evaluator.evaluate_batch(candidates, score_only=True).score


def _move_array(moves) -> np.ndarray:
    """Moves as an ``(M, 3)`` int64 array (arrays pass through)."""
    if isinstance(moves, np.ndarray):
        if moves.ndim != 2 or moves.shape[1] != 3:
            raise MappingError(
                f"a move array must have shape (M, 3), got {moves.shape}"
            )
        return moves.astype(np.int64, copy=False)
    moves = list(moves)
    # One flat pass: ~3x cheaper than np.asarray on a list of tuples.
    flat = chain.from_iterable(moves)
    return np.fromiter(flat, dtype=np.int64, count=3 * len(moves)).reshape(-1, 3)


class DeltaEvaluator:
    """Incremental evaluator wrapping a :class:`MappingEvaluator`.

    Maintains per-edge pair indices, IL tables and (for SNR-family
    objectives only) signal and noise tables for one incumbent
    assignment; see the module docstring for the state kept and the
    update rule.
    """

    def __init__(self, evaluator: MappingEvaluator) -> None:
        spec = spec_for(evaluator.objective)
        if not spec.supports_delta:
            raise MappingError(
                f"objective {evaluator.objective.value!r} declares no "
                "incremental (delta) support; use delta_engine() to fall "
                "back to full batch evaluation"
            )
        self._score_table = spec.table
        # Only SNR-family scores read signal and noise; loss-family
        # engines keep neither and never touch the coupling matrix.
        self._tracks_noise = evaluator.objective.is_snr_based
        self._ev = evaluator
        self._model = evaluator.model
        self._routes = evaluator.routes
        self._edges = evaluator._edges  # (E, 2) int64 task pairs
        self._E = len(self._edges)
        # Sparse-kernel evaluators share their nominal CSR state: row sums
        # come from CSR row dots instead of dense-transpose walks, so the
        # O(n_pairs^2) transpose is never materialized in sparse mode.
        self._sparse = evaluator._sparse
        self._assignment: Optional[np.ndarray] = None
        # Built once per CG and shared by every engine over it.
        self._aff, self._aff_count, width = evaluator.cg.affected_rows
        # A chunk's byte budget is charged at the rows' uncompacted width,
        # which fixes how many moves share a chunk (_SCORE_CHUNK_BYTES).
        self._move_bytes = 8 * max(1, self._E * 2 * width) * 6

        if not self._tracks_noise:
            return
        # The mask is gathered both by victim row and by aggressor column;
        # a contiguous transpose keeps the column walk row-local (and does
        # not assume the serialization mask is symmetric).
        self._maskfT = evaluator.cg.mask_linear_T
        # The evaluator's padded conflict table: row v lists the aggressor
        # columns a with mask[v, a] == 0 (the serialized edges, plus v
        # itself) — the only terms by which v's masked noise row differs
        # from the full row sum. Padding carries weight 0.
        self._conf_row, self._conf_w = evaluator.cg.conflict_tables
        # Flat view: the cross and conflict terms gather (M, L, L) and
        # (M, L, K) blocks with one ``take`` each.
        self._coupling_flat = np.asarray(self._model.coupling_linear).reshape(-1)

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
        return self._score

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
        array = np.asarray(assignment, dtype=np.int64)
        if array.ndim != 1 or len(array) not in (
            self._ev.n_tasks, self._ev.vector_width
        ):
            raise MappingError(
                f"assignment must have one tile per task "
                f"({self._ev.n_tasks}), got shape {array.shape}"
            )
        # A plain assignment on a routed engine gets base-route genes.
        self._assignment = self._ev._check_batch(array[None, :])[0].copy()
        self._rebuild_tables()
        if count:
            self._ev.evaluations += 1
        return self._score

    def _rebuild_tables(self) -> None:
        """Full fallback: the incumbent's tables as full evaluation has them.

        SNR-family tables come from the evaluator's ``_tables_from_pairs``
        on the kernel it resolved, so the incumbent scores exactly what
        ``evaluate_batch`` gives its assignment. The score is reduced
        here, once per rebuild (one SNR row for SNR-family engines).
        """
        self._pairs = self._ev._pair_table(self._assignment)
        if not self._tracks_noise:
            self._il = self._model.insertion_loss_db[self._pairs]
            self._signal = self._noise = None
            self._score = float(self._scores_from(self._il[None, :], None, None)[0])
            return
        il, noise, signal = self._ev._tables_from_pairs(
            self._pairs[None, :], self._model, self._sparse
        )
        self._il, self._signal, self._noise = il[0], signal[0], noise[0]
        self._score = float(self._scores_from(il, signal, noise)[0])
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

    def score_moves(self, moves: "Iterable[Move] | np.ndarray") -> np.ndarray:
        """Score a batch of moves against the incumbent.

        ``moves`` is an iterable of move triples or an ``(M, 3)`` integer
        array. Returns one score per move (same objective and same
        numbers as ``evaluate_batch`` on the moved assignments, up to
        float associativity; the same bits for any chunking) and charges
        ``len(moves)`` evaluations.
        """
        self._require_incumbent()
        moves = _move_array(moves)
        n_moves = len(moves)
        if n_moves == 0:
            return np.empty(0, dtype=np.float64)
        aff, counts = self._affected(moves)
        # Process moves in descending order of affected-set size: each
        # chunk is padded to its own maximum, so a few high-degree moves
        # don't widen the whole batch.
        order = np.argsort(-counts, kind="stable")
        chunk = max(1, _SCORE_CHUNK_BYTES // self._move_bytes)
        scores = np.empty(n_moves, dtype=np.float64)
        for start in range(0, n_moves, chunk):
            sel = order[start : start + chunk]
            width = max(1, int(counts[sel[0]]))
            il, signal, noise = self._move_tables(moves[sel], aff[sel, :width])
            scores[sel] = self._scores_from(il, signal, noise)
        self._ev.evaluations += n_moves
        return scores

    def commit(self, move: Move) -> float:
        """Apply a move to the incumbent; returns the new score.

        Charges no evaluation: the move was already scored when its
        neighbourhood was. Every engine rebuilds its tables under the
        moved assignment, as :meth:`reset` does, so the new score is the
        moved assignment's full evaluation.
        """
        self._require_incumbent()
        task, tile, other = int(move[0]), int(move[1]), int(move[2])
        if other >= 0:
            self._assignment[other] = self._assignment[task]
        self._assignment[task] = tile
        self._rebuild_tables()
        return self._score

    # -- internals -------------------------------------------------------------

    def _affected(self, moves: np.ndarray):
        """``(M, W)`` affected-edge rows of ``moves`` and their valid counts.

        Looked up in the per-(task, partner) table; valid entries come
        first. A reroute move (``other == REROUTE``, ``task`` = gene slot
        index) affects exactly the rerouted edge: its first element
        indexes past the task range, so it reads the all-pad row and the
        edge is patched in.
        """
        n_tasks = self._ev.n_tasks
        tasks, others = moves[:, 0], moves[:, 2]
        key = np.minimum(tasks, n_tasks) * (n_tasks + 1) + np.where(
            others >= 0, others, n_tasks
        )
        aff = self._aff.take(key, axis=0)
        counts = self._aff_count.take(key)
        if self._routes > 1:
            reroute = others == REROUTE
            if reroute.any():
                aff[reroute, 0] = tasks[reroute] - n_tasks
                counts[reroute] = 1
        return aff, counts

    def _move_tables(self, moves: np.ndarray, aff: np.ndarray):
        """Per-move ``(M, E+1)`` IL/signal/noise tables.

        ``aff`` holds the moves' affected-edge rows, cut to the chunk's
        width. Column E is a dummy scatter target for padding entries;
        callers slice it off. Signal and noise are ``None`` for
        loss-family engines, which return right after the IL scatter.
        """
        a = self._assignment
        n_edges = self._E
        n_moves = len(moves)
        tasks, tiles, others = moves[:, 0], moves[:, 1], moves[:, 2]

        pad = aff < 0
        aff0 = np.where(pad, 0, aff)
        # (M, L, 2) endpoint tasks of every affected edge, and their tiles
        # after the move: the moved task lands on the target tile, a swap
        # partner on the moved task's old tile (a relocation's or a
        # reroute's negative ``other`` matches no task).
        ends = self._edges.take(aff0, axis=0)
        task_tile = a.take(tasks)
        end_tiles = np.where(
            ends == tasks[:, None, None],
            tiles[:, None, None],
            np.where(
                ends == others[:, None, None],
                task_tile[:, None, None],
                a.take(ends),
            ),
        )
        old_pa = self._pairs.take(aff0)
        new_pa = self._model.pair_indices(end_tiles[..., 0], end_tiles[..., 1])
        if self._routes > 1:
            # Mapping moves carry the edge's gene to its new tile pair;
            # a reroute keeps the pair and overwrites the gene.
            genes = np.where(
                (others == REROUTE)[:, None],
                tiles[:, None],
                a.take(self._ev.n_tasks + aff0),
            )
            new_pa = new_pa + genes
        new_pa = np.where(pad, old_pa, new_pa)

        # Padding scatters into the dummy column; ``flat`` indexes the
        # flattened (M, E+1) tables.
        row_start = np.arange(n_moves)[:, None] * (n_edges + 1)
        flat = np.where(pad, n_edges, aff) + row_start
        il = np.empty((n_moves, n_edges + 1), dtype=np.float64)
        il[:, :n_edges] = self._il
        il.reshape(-1)[flat] = self._model.insertion_loss_db.take(new_pa)
        if not self._tracks_noise:
            return il, None, None
        signal = np.empty((n_moves, n_edges + 1), dtype=np.float64)
        signal[:, :n_edges] = self._signal
        signal.reshape(-1)[flat] = self._model.signal_linear.take(new_pa)

        # Unaffected victims: aggressor terms of the affected edges change
        # under the victim's unchanged pair. Both coupling gathers are
        # contiguous row copies of the per-incumbent victim-column matrix
        # (new aggressor pair row minus old aggressor pair row). Padding
        # entries contribute 0 because their new pair equals their old
        # one.
        diff = self._cols_inc.take(new_pa, axis=0) - self._cols_inc.take(
            old_pa, axis=0
        )  # (M, L, E)
        base = np.einsum("mle,mle->me", self._maskfT.take(aff0, axis=0), diff)
        noise = np.empty((n_moves, n_edges + 1), dtype=np.float64)
        noise[:, :n_edges] = self._noise[None, :] + base

        # Affected victims: recompute the full masked row sum, but as the
        # dense precomputed row sum R[new pair] plus two sparse terms —
        # the columns the move itself displaced (cross terms among the
        # affected edges; zero for padding, whose new pair is its old
        # one), minus the victim's serialized/self columns at their moved
        # pairs. Both coupling blocks are flat gathers of (M, L, L) and
        # (M, L, K) index blocks. _row_sum keeps the cross term
        # independent of the chunk's padded width L.
        coupling = self._coupling_flat
        victim = new_pa[:, :, None] * self._model.n_pairs
        cross = _row_sum(
            coupling.take(victim + new_pa[:, None, :])
            - coupling.take(victim + old_pa[:, None, :])
        )
        pairs_moved = np.empty((n_moves, n_edges + 1), dtype=np.int64)
        pairs_moved[:, :n_edges] = self._pairs
        pairs_moved.reshape(-1)[flat] = new_pa
        conf = self._conf_row.take(aff0, axis=0)  # (M, L, K) serialized columns
        conf_pairs = pairs_moved.reshape(-1).take(conf + row_start[:, :, None])
        conf_term = np.einsum(
            "mlk,mlk->ml",
            coupling.take(victim + conf_pairs),
            self._conf_w.take(aff0, axis=0),
        )
        dense = self._rowsum.take(new_pa)
        full = dense + cross - conf_term
        noise.reshape(-1)[flat] = full

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
            noise[suspect_m, suspect_v] = self._ev._masked_noise(
                self._model.coupling_linear, pairs_moved[suspect_m, :n_edges],
                suspect_v,
            )
        return il, signal, noise

    def _scores_from(self, il, signal, noise) -> np.ndarray:
        """Objective scores from (M, >= E) per-edge tables.

        Reads the first E columns (``_move_tables`` appends a dummy
        one) and reduces them through the evaluator's own SNR formula
        and metric table (the spec's ``table`` name, resolved at
        construction), so the scores are bit-identical to the full
        pipeline's for the same per-edge values. ``signal`` and
        ``noise`` are ``None`` for loss-family engines, which never
        compute SNR.
        """
        n_edges = self._E
        snr = None
        if noise is not None:
            snr = _snr_db(signal[:, :n_edges], noise[:, :n_edges])
        return self._ev._table(self._score_table, il[:, :n_edges], snr)
