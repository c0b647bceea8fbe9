"""Vectorized all-pairs coupling matrices for one architecture.

Evaluating the worst-case SNR of a mapping needs, for every ordered pair of
tile-to-tile paths, the noise the aggressor injects into the victim. This
module precomputes that once per architecture:

* ``signal_linear[p]`` — end-to-end transmission of path ``p``;
* ``insertion_loss_db[p]`` — the same in dB (eq. 3's per-edge term);
* ``coupling_linear[v, a]`` — noise power at the detector of victim path
  ``v`` per unit power injected by aggressor path ``a`` (the first-order
  walk model of :mod:`repro.models.crosstalk`, applied to all pairs at
  once via an element exit index).

Paths are indexed ``p = src * n_tiles + dst``. With the matrices in hand, a
mapping evaluation is a handful of numpy gathers (see
:class:`repro.core.evaluator.MappingEvaluator`), which is what makes the
paper's 100,000-random-mappings experiment and the optimizer loops cheap.

Because the walk model zeroes every pair of paths that never co-enter an
element (and attenuates walks below ``WALK_LOSS_CUTOFF_LINEAR`` to exact
zero), a substantial fraction of ``coupling_linear`` is exactly ``0.0`` —
around 55-77 % on the meshes of the paper's case studies. :meth:`CouplingModel.csr`
exposes the same physics as a compressed-sparse-row triplet
(``indptr``/``indices``/``values``, victim-major, columns sorted), which
the evaluator's sparse backend streams instead of gathering from the
dense ``O(n_pairs^2)`` matrix.

The matrices encode pure physics: *every* pair of simultaneously active
paths couples. Which pairs can actually be simultaneously active (the
transmitter/receiver serialization of DESIGN.md §3) is decided at the
communication-graph level by the evaluator.

Walk-once vectorized build (PR 5)
---------------------------------
The forward emission walk from an ``(element, out_port)`` channel depends
only on the network, never on the aggressor injecting into it. The
builder therefore resolves each unique emission channel **once** — walk
the noise forward, find every victim pair's *first* shared element, keep
the co-entering (port-matching) ones with their walk loss and cumulative
path divisors — and then reduces the whole build to vectorized gathers
plus one deterministic ``np.add.at`` scatter per aggressor block. The
scatter entries are ordered by emission instance (the legacy builder's
iteration order), and ``np.add.at`` applies them sequentially, so the
resulting matrices are **bit-identical** to the legacy per-aggressor walk
loop at both float64 and float32. The legacy builder is kept
(``builder="legacy"``) as the cross-validation oracle for tests and
benches.

On top of the fast build sits an on-disk model cache
(:meth:`CouplingModel.for_network` with ``cache_dir=``, or the
process-wide :func:`set_model_cache_dir` default / the
``PHONOCMAP_MODEL_CACHE`` environment variable): finished models are
persisted as ``.npy`` files keyed by ``(network.signature, dtype,
MODEL_VERSION)`` and loaded back as read-only memory maps, so an
architecture sweep pays each build exactly once per machine. Corrupted or
stale entries fall back to a rebuild; unwritable cache directories fall
back to in-memory builds — the cache can slow nothing down and break
nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.models.crosstalk import WALK_LOSS_CUTOFF_LINEAR, _MAX_WALK_STEPS
from repro.noc.network import PhotonicNoC
from repro.photonics.elements import (
    ElementKind,
    passive_loss_db,
    straight_output,
    traversal_emissions,
)
from repro.photonics.units import db_to_linear

__all__ = [
    "MODEL_VERSION",
    "CouplingCSR",
    "CouplingModel",
    "clear_model_cache",
    "set_model_cache_dir",
    "get_model_cache_dir",
]

#: Version of the build physics / on-disk layout. Bump whenever the
#: builder's numerics or the cache file format change: the disk key
#: includes it, so stale entries miss instead of resurrecting old physics.
MODEL_VERSION = 1

_CACHE: Dict[str, "CouplingModel"] = {}

#: Process-wide count of from-scratch model builds (every cache-miss
#: construction increments it). Observability for cache-effectiveness
#: assertions: a warm device-parameter sweep must leave it unchanged.
BUILD_COUNT = 0

#: Process-wide default directory of the on-disk model cache (``None``
#: disables it). Seeded from ``PHONOCMAP_MODEL_CACHE``; the CLI's
#: ``--model-cache`` and pool worker initializers override it.
_MODEL_CACHE_DIR: Optional[str] = os.environ.get("PHONOCMAP_MODEL_CACHE") or None


def set_model_cache_dir(path: Optional[str]) -> None:
    """Set the process-wide default on-disk model cache directory.

    ``None`` disables the default (explicit ``cache_dir=`` arguments
    still work). Worker initializers call this so pool workers resolve
    models from the same cache as their parent.
    """
    global _MODEL_CACHE_DIR
    _MODEL_CACHE_DIR = str(path) if path else None


def get_model_cache_dir() -> Optional[str]:
    """The process-wide default on-disk model cache directory (or None)."""
    return _MODEL_CACHE_DIR


@dataclass(frozen=True)
class CouplingCSR:
    """Compressed-sparse-row view of the coupling matrix.

    Victim-major: row ``v`` holds the nonzero aggressor columns of
    ``coupling_linear[v, :]`` in ascending column order, so one row is one
    contiguous ``values[indptr[v]:indptr[v + 1]]`` /
    ``indices[indptr[v]:indptr[v + 1]]`` slice. ``nonzero_row_starts``
    pre-splits the ``indptr`` walk for ``numpy.add.reduceat`` (which
    mishandles empty segments): it lists the start offset of every
    non-empty row, aligned with ``nonzero_rows``.
    """

    indptr: np.ndarray  # (n_pairs + 1,) int64
    indices: np.ndarray  # (nnz,) int32, column-sorted within each row
    values: np.ndarray  # (nnz,) coupling dtype
    nonzero_rows: np.ndarray  # (n_nonzero_rows,) int64
    nonzero_row_starts: np.ndarray  # (n_nonzero_rows,) int64

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) couplings."""
        return int(self.indices.shape[0])

    @property
    def n_rows(self) -> int:
        """Number of victim rows (``n_pairs``)."""
        return int(self.indptr.shape[0] - 1)

    @property
    def nbytes(self) -> int:
        """Bytes of the three CSR arrays."""
        return self.indptr.nbytes + self.indices.nbytes + self.values.nbytes

    def row_dots(self, weights: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Dot every CSR row with a dense ``(n_pairs,)`` weight vector.

        The workhorse of the sparse noise contraction and of the delta
        evaluator's row sums: returns ``r[q] = sum_k values[q, k] *
        weights[columns[q, k]]`` for every row ``q``, streaming the CSR
        arrays once (``O(nnz)``) instead of gathering across the dense
        matrix. The per-row reduction order is fixed (sequential within
        each row slice), so results do not depend on batching or worker
        count. ``out``/``scratch`` allow callers in hot loops to reuse
        ``(n_rows,)`` / ``(nnz,)`` buffers.
        """
        if out is None:
            out = np.zeros(self.n_rows, dtype=np.float64)
        else:
            out[:] = 0.0
        if self.nnz == 0:
            return out
        if scratch is None:
            scratch = np.empty(self.nnz, dtype=np.float64)
        np.take(weights, self.indices, out=scratch)
        np.multiply(scratch, self.values, out=scratch)
        out[self.nonzero_rows] = np.add.reduceat(
            scratch, self.nonzero_row_starts
        )
        return out


def _build_csr(coupling: np.ndarray) -> CouplingCSR:
    """Victim-major CSR of a dense coupling matrix.

    Built block-wise so the transient ``numpy.nonzero`` index arrays stay
    small relative to the matrix itself (on a 12x12 mesh the dense matrix
    is ~3.4 GB; a whole-matrix ``nonzero`` would add ~2 GB of transient
    int64 coordinates on top).
    """
    n_rows = coupling.shape[0]
    counts = np.count_nonzero(coupling, axis=1)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int32)
    values = np.empty(nnz, dtype=coupling.dtype)
    block = max(1, (8 << 20) // max(1, coupling.shape[1] * 8))
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        rows, cols = np.nonzero(coupling[start:stop])
        lo, hi = indptr[start], indptr[stop]
        indices[lo:hi] = cols
        values[lo:hi] = coupling[start + rows, cols]
    nonzero_rows = np.nonzero(counts)[0].astype(np.int64)
    return CouplingCSR(
        indptr=indptr,
        indices=indices,
        values=values,
        nonzero_rows=nonzero_rows,
        nonzero_row_starts=indptr[:-1][nonzero_rows],
    )


@dataclass(frozen=True)
class _BuildTables:
    """Aggressor-independent gather/scatter tables of one network's physics.

    Everything the vectorized builder needs, flattened:

    * per emission *instance* (one ``(aggressor traversal, emission)``
      pair, in the legacy builder's iteration order): the aggressor pair,
      the injected base power ``k_linear * cum_in`` and the emission
      channel it exits into;
    * per unique emission *channel* ``(element, out_port)``: the resolved
      first-encounter table — for every victim pair credited by the
      channel, the walk loss accumulated before the join (1.0 for joins
      at the emitting element), the victim's end-to-end transmission and
      the cumulative divisor at the join position. Shielded victims
      (first shared element entered through the wrong port) contribute
      exactly zero and are dropped outright.

    The coupling matrix is then ``coupling[victim, aggressor] +=
    base * walk_loss * total / divisor`` scattered over all instances —
    the exact arithmetic (and accumulation order) of the legacy loop.
    """

    n_pairs: int
    inst_pair: np.ndarray  # (n_inst,) int64 aggressor pair per instance
    inst_base: np.ndarray  # (n_inst,) float64 k_linear * power_at_input
    inst_channel: np.ndarray  # (n_inst,) int64 channel id per instance
    ch_start: np.ndarray  # (n_channels,) int64 offset into the ch_* arrays
    ch_len: np.ndarray  # (n_channels,) int64 credited victims per channel
    ch_victim: np.ndarray  # (sum ch_len,) int64 victim pair
    ch_wl: np.ndarray  # (sum ch_len,) float64 walk loss before the join
    ch_total: np.ndarray  # (sum ch_len,) float64 victim total transmission
    ch_div: np.ndarray  # (sum ch_len,) float64 cum_out (exit) / cum_in (walk)


def _passive_lookup(network: PhotonicNoC):
    """Cached ``(element, in_port) -> linear passive straight-pass loss``.

    Shared by the legacy and the vectorized builder so the two can never
    drift apart on the loss arithmetic their bit-exactness parity rests
    on.
    """
    params = network.params
    cache: Dict[Tuple[int, int], float] = {}

    def passive_linear(element: int, in_port: int) -> float:
        key = (element, in_port)
        value = cache.get(key)
        if value is None:
            info = network.element(element)
            value = db_to_linear(
                passive_loss_db(info.kind, in_port, params, info.length_cm)
            )
            cache[key] = value
        return value

    return passive_linear


def _emissions_lookup(params):
    """Cached traversal -> ``((k_linear, out_port), ...)`` emission tuples.

    Shared by the legacy and the vectorized builder (see
    :func:`_passive_lookup`).
    """
    cache: Dict[Tuple[ElementKind, int, int, object], tuple] = {}

    def emissions_of(kind, in_port, out_port, state):
        key = (kind, in_port, out_port, state)
        value = cache.get(key)
        if value is None:
            value = tuple(
                (db_to_linear(e.coefficient_db), e.out_port)
                for e in traversal_emissions(kind, in_port, out_port, state, params)
            )
            cache[key] = value
        return value

    return emissions_of


def _slot_paths(network: PhotonicNoC, routes: int) -> List[tuple]:
    """``(slot, path)`` pairs in slot-major build order.

    With ``routes == 1`` the slots are exactly the legacy pair indices in
    ``all_paths()`` iteration order, so the build stays bit-identical to
    the single-route model. With ``routes > 1`` a pair's menu occupies
    ``routes`` consecutive slots (``slot = pair * routes + r``); route
    indices past the pair's menu size alias earlier plans, so every slot
    holds a fully valid column.
    """
    n_tiles = network.topology.n_tiles
    if routes == 1:
        return [
            (src * n_tiles + dst, path)
            for (src, dst), path in network.all_paths().items()
        ]
    return [
        ((src * n_tiles + dst) * routes + r, path)
        for (src, dst, r), path in network.all_paths_routed(routes).items()
    ]


def _build_tables(network: PhotonicNoC, routes: int = 1) -> _BuildTables:
    """Flatten a network's paths and emission walks into build tables.

    Pure function of the network: the emission-channel walks are executed
    exactly once per unique ``(element, out_port)`` channel (the legacy
    builder re-ran them once per aggressor traversal emitting into them),
    and the per-victim join/credit loops become lexsort-based
    first-encounter resolutions over the flattened entry/exit indices.

    With ``routes > 1`` the same pipeline runs over the routed slot set
    (:func:`_slot_paths`): victims and aggressors are routed slots, so
    the matrix resolves the route axis of both sides of every coupling.
    """
    params = network.params
    elements = network.elements
    follow = network.wiring.get
    paths = _slot_paths(network, routes)
    n_tiles = network.topology.n_tiles
    n_pairs = n_tiles * n_tiles * routes

    # Flatten every traversal of every path, in paths-iteration order —
    # the global traversal id doubles as the legacy index-append rank.
    pair_total = np.zeros(n_pairs, dtype=np.float64)
    trav_pair_l: List[int] = []
    trav_elem_l: List[int] = []
    trav_in_l: List[int] = []
    trav_out_l: List[int] = []
    cum_in_parts: List[np.ndarray] = []
    cum_out_parts: List[np.ndarray] = []
    for pair, path in paths:
        pair_total[pair] = path.total_linear
        for step in path.traversals:
            trav_pair_l.append(pair)
            trav_elem_l.append(step.element)
            trav_in_l.append(step.in_port)
            trav_out_l.append(step.out_port)
        cum_in_parts.append(path.cum_in_linear)
        cum_out_parts.append(path.cum_out_linear)
    trav_pair = np.asarray(trav_pair_l, dtype=np.int64)
    trav_elem = np.asarray(trav_elem_l, dtype=np.int64)
    trav_in = np.asarray(trav_in_l, dtype=np.int64)
    trav_out = np.asarray(trav_out_l, dtype=np.int64)
    trav_cum_in = (
        np.concatenate(cum_in_parts) if cum_in_parts else np.zeros(0)
    )
    trav_cum_out = (
        np.concatenate(cum_out_parts) if cum_out_parts else np.zeros(0)
    )

    # Entry index (element -> traversal ids) and exit index
    # ((element, out_port) -> traversal ids), grouped by stable sort so
    # within one group the ids keep the legacy append order.
    n_elements = len(elements)
    entry_order = np.argsort(trav_elem, kind="stable")
    entry_elem_sorted = trav_elem[entry_order]
    entry_ptr = np.searchsorted(
        entry_elem_sorted, np.arange(n_elements + 1, dtype=np.int64)
    )
    exit_key = trav_elem * 4 + trav_out  # ports are < 4
    exit_order = np.argsort(exit_key, kind="stable")
    exit_key_sorted = exit_key[exit_order]

    def exit_slice(element: int, out_port: int) -> np.ndarray:
        key = element * 4 + out_port
        lo = np.searchsorted(exit_key_sorted, key)
        hi = np.searchsorted(exit_key_sorted, key + 1)
        return exit_order[lo:hi]

    passive_linear = _passive_lookup(network)
    emissions_of = _emissions_lookup(params)

    # Emission instances, in the legacy builder's iteration order.
    channel_ids: Dict[Tuple[int, int], int] = {}
    channel_keys: List[Tuple[int, int]] = []
    inst_pair_l: List[int] = []
    inst_base_l: List[float] = []
    inst_channel_l: List[int] = []
    for pair, path in paths:
        cum_in = path.cum_in_linear
        for index, step in enumerate(path.traversals):
            info = elements[step.element]
            if info.kind is ElementKind.WAVEGUIDE:
                continue
            emitted = emissions_of(
                info.kind, step.in_port, step.out_port, step.state
            )
            if not emitted:
                continue
            power_at_input = cum_in[index]
            for k_linear, emission_port in emitted:
                key = (step.element, emission_port)
                cid = channel_ids.get(key)
                if cid is None:
                    cid = len(channel_keys)
                    channel_ids[key] = cid
                    channel_keys.append(key)
                inst_pair_l.append(pair)
                inst_base_l.append(k_linear * power_at_input)
                inst_channel_l.append(cid)

    # Resolve each unique channel once: walk forward, then pick every
    # victim pair's first encounter over (slot, append rank) and keep the
    # co-entering ones.
    ch_start = np.zeros(len(channel_keys), dtype=np.int64)
    ch_len = np.zeros(len(channel_keys), dtype=np.int64)
    victim_parts: List[np.ndarray] = []
    wl_parts: List[np.ndarray] = []
    div_parts: List[np.ndarray] = []
    offset = 0
    for cid, (element, emission_port) in enumerate(channel_keys):
        # Slot 0: the join at the emitting element itself (victims that
        # exit through the emission port; no loss inside the generating
        # switch). Slots 1..L: the forward walk, same termination rules
        # as the legacy builder — plus two exact shortcuts the legacy
        # loop pays for in full: a repeated walk *position* means the
        # rest of the walk is a lap of a cycle (torus orbits) that can
        # credit nothing new, and a repeated walk *element* has already
        # credited (or shielded) every pair entering it at its first
        # occurrence, so later occurrences carry no candidates.
        exit_tids = exit_slice(element, emission_port)
        slot_elems: List[int] = []
        slot_in = [-1]
        slot_wl = [1.0]
        seen_positions = set()
        seen_elements = set()
        walk_loss = 1.0
        position = follow((element, emission_port))
        steps = 0
        while (
            position is not None
            and walk_loss > WALK_LOSS_CUTOFF_LINEAR
            and steps < _MAX_WALK_STEPS
            and position not in seen_positions
        ):
            seen_positions.add(position)
            steps += 1
            walk_element, in_port = position
            if walk_element not in seen_elements:
                seen_elements.add(walk_element)
                slot_elems.append(walk_element)
                slot_in.append(in_port)
                slot_wl.append(walk_loss)
            walk_loss *= passive_linear(walk_element, in_port)
            position = follow(
                (
                    walk_element,
                    straight_output(elements[walk_element].kind, in_port),
                )
            )
        if slot_elems:
            elems_arr = np.asarray(slot_elems, dtype=np.int64)
            starts = entry_ptr[elems_arr]
            lens = entry_ptr[elems_arr + 1] - starts
            n_entries = int(lens.sum())
            slot_ends = np.cumsum(lens)
            within = np.arange(n_entries, dtype=np.int64) - np.repeat(
                slot_ends - lens, lens
            )
            entry_tids = entry_order[np.repeat(starts, lens) + within]
            entry_slots = np.repeat(
                np.arange(1, len(slot_elems) + 1, dtype=np.int64), lens
            )
        else:
            entry_tids = np.zeros(0, dtype=np.int64)
            entry_slots = np.zeros(0, dtype=np.int64)
        tids = np.concatenate([exit_tids, entry_tids])
        if len(tids):
            slots = np.concatenate(
                [np.zeros(len(exit_tids), dtype=np.int64), entry_slots]
            )
            pairs = trav_pair[tids]
            # First encounter wins: sort by (pair, slot, append rank) and
            # keep the first row of each pair — the legacy `credited` set.
            order = np.lexsort((tids, slots, pairs))
            pair_sorted = pairs[order]
            slot_sorted = slots[order]
            tid_sorted = tids[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = pair_sorted[1:] != pair_sorted[:-1]
            win_pair = pair_sorted[first]
            win_slot = slot_sorted[first]
            win_tid = tid_sorted[first]
            is_exit = win_slot == 0
            slot_in_arr = np.asarray(slot_in, dtype=np.int64)
            keep = is_exit | (trav_in[win_tid] == slot_in_arr[win_slot])
            win_pair = win_pair[keep]
            win_tid = win_tid[keep]
            win_slot = win_slot[keep]
            is_exit = is_exit[keep]
            victims = win_pair
            wl = np.asarray(slot_wl, dtype=np.float64)[win_slot]
            div = np.where(
                is_exit, trav_cum_out[win_tid], trav_cum_in[win_tid]
            )
        else:
            victims = np.zeros(0, dtype=np.int64)
            wl = np.zeros(0, dtype=np.float64)
            div = np.zeros(0, dtype=np.float64)
        ch_start[cid] = offset
        ch_len[cid] = len(victims)
        offset += len(victims)
        victim_parts.append(victims)
        wl_parts.append(wl)
        div_parts.append(div)

    ch_victim = (
        np.concatenate(victim_parts)
        if victim_parts
        else np.zeros(0, dtype=np.int64)
    )
    ch_wl = (
        np.concatenate(wl_parts) if wl_parts else np.zeros(0, dtype=np.float64)
    )
    ch_div = (
        np.concatenate(div_parts)
        if div_parts
        else np.zeros(0, dtype=np.float64)
    )
    return _BuildTables(
        n_pairs=n_pairs,
        inst_pair=np.asarray(inst_pair_l, dtype=np.int64),
        inst_base=np.asarray(inst_base_l, dtype=np.float64),
        inst_channel=np.asarray(inst_channel_l, dtype=np.int64),
        ch_start=ch_start,
        ch_len=ch_len,
        ch_victim=ch_victim,
        ch_wl=ch_wl,
        ch_total=pair_total[ch_victim],
        ch_div=ch_div,
    )


#: Expanded scatter entries per accumulation chunk: bounds the transient
#: gather arrays to ~5 x 8 bytes x this many entries (~160 MB).
_SCATTER_CHUNK = 4 << 20


def _accumulate_columns(tables: _BuildTables, out: np.ndarray) -> None:
    """Scatter every aggressor's couplings into ``out``.

    ``out`` is the zeroed ``(n_pairs, n_pairs)`` C-contiguous matrix at
    the model dtype. Deterministic and legacy-exact: ``np.add.at``
    applies entries sequentially (computing in float64 and rounding to
    the matrix dtype per store, the same as the legacy ``+=``) and
    entries are ordered by emission instance, so every ``(victim,
    aggressor)`` cell accumulates in the legacy order.
    """
    n_inst = len(tables.inst_pair)
    if not n_inst:
        return
    lens = tables.ch_len[tables.inst_channel]
    ends = np.cumsum(lens)
    width = tables.n_pairs
    flat = out.reshape(-1)
    start = 0
    while start < n_inst:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + _SCATTER_CHUNK, side="right"))
        stop = min(max(stop, start + 1), n_inst)
        chunk_lens = lens[start:stop]
        total = int(ends[stop - 1]) - base
        if total == 0:
            start = stop
            continue
        inst = np.repeat(np.arange(start, stop, dtype=np.int64), chunk_lens)
        chunk_ends = np.cumsum(chunk_lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            chunk_ends - chunk_lens, chunk_lens
        )
        j = tables.ch_start[tables.inst_channel[inst]] + within
        # ((base * walk_loss) * total) / div — the legacy association
        # order, elementwise, so every value matches bit for bit.
        values = tables.inst_base[inst] * tables.ch_wl[j]
        values *= tables.ch_total[j]
        values /= tables.ch_div[j]
        np.add.at(
            flat,
            tables.ch_victim[j] * width + tables.inst_pair[inst],
            values,
        )
        start = stop


class CouplingModel:
    """Precomputed signal/coupling matrices for a :class:`PhotonicNoC`."""

    def __init__(
        self,
        network: PhotonicNoC,
        dtype=np.float64,
        builder: str = "vectorized",
        routes: int = 1,
    ) -> None:
        global BUILD_COUNT
        BUILD_COUNT += 1
        if routes < 1:
            raise ModelError(f"routes must be >= 1, got {routes}")
        if routes > 1 and builder == "legacy":
            raise ModelError("the legacy builder only supports routes=1")
        self.network = network
        self.n_tiles = network.topology.n_tiles
        self.routes = int(routes)
        self.n_pairs = self.n_tiles * self.n_tiles * self.routes
        self.signal_linear = np.zeros(self.n_pairs, dtype=np.float64)
        self.insertion_loss_db = np.full(self.n_pairs, np.nan, dtype=np.float64)
        self.coupling_linear = np.zeros((self.n_pairs, self.n_pairs), dtype=dtype)
        self._coupling_T: Optional[np.ndarray] = None
        self._csr: Optional[CouplingCSR] = None
        self._nnz: Optional[int] = None
        if builder == "vectorized":
            self._build()
        elif builder == "legacy":
            self._build_legacy()
        else:
            raise ModelError(
                f"builder must be 'vectorized' or 'legacy', got {builder!r}"
            )

    @property
    def coupling_linear_T(self) -> np.ndarray:
        """Contiguous transpose of :attr:`coupling_linear`, built lazily.

        The delta evaluator gathers ``coupling_linear[v, a]`` with ``a``
        fixed and ``v`` running over a victim set; on the row-major
        ``coupling_linear`` that walk is one cache miss per element, on
        the transpose it stays inside one row. Only dense-backend delta
        engines of SNR-family objectives pay the doubled memory:
        loss-family engines keep no noise state and never read it. A
        dense local pool builds it before its workers fork, so they all
        share the parent's copy instead of building one each.
        """
        if self._coupling_T is None:
            self._coupling_T = np.ascontiguousarray(self.coupling_linear.T)
        return self._coupling_T

    def csr(self) -> CouplingCSR:
        """Victim-major CSR triplet of :attr:`coupling_linear`, built lazily.

        The sparse evaluator backend streams these arrays instead of
        gathering the dense ``(M, E, E)`` grid, and the delta evaluator
        consumes the rows in place of dense-transpose column walks; only
        sparse users pay the extra ``O(nnz)`` memory. A sparse local pool
        builds it before its workers fork, so they all share the parent's
        arrays instead of building their own.
        """
        if self._csr is None:
            self._csr = _build_csr(self.coupling_linear)
        return self._csr

    @property
    def nnz(self) -> int:
        """Number of nonzero couplings (one matrix scan, cached).

        Deliberately cheaper than :meth:`csr`: ``backend="auto"``
        evaluators read this on every construction, and most of them
        resolve to the dense backend without ever needing the CSR arrays.
        """
        if self._csr is not None:
            return self._csr.nnz
        if self._nnz is None:
            self._nnz = int(np.count_nonzero(self.coupling_linear))
        return self._nnz

    @property
    def density(self) -> float:
        """Nonzero fraction of the coupling matrix (0.0 to 1.0).

        The statistic behind the evaluator's ``backend="auto"`` rule: the
        sparse contraction streams ``nnz = density * n_pairs^2`` values
        per evaluated mapping, the dense one gathers ``E^2``, so sparsity
        only pays off once the communication graph is edge-dense enough
        (see :meth:`repro.core.evaluator.MappingEvaluator`).
        """
        size = float(self.n_pairs * self.n_pairs)
        return self.nnz / size if size else 0.0

    # -- indexing ----------------------------------------------------------------

    def pair_index(self, src_tile: int, dst_tile: int) -> int:
        """Flat slot index of the ordered tile pair's route-0 entry.

        Routed models (``routes > 1``) lay a pair's menu out on
        ``routes`` consecutive slots, so route ``r`` of the pair lives at
        ``pair_index(src, dst) + r``. At ``routes == 1`` this is exactly
        the legacy pair index.
        """
        if self.routes == 1:
            return src_tile * self.n_tiles + dst_tile
        return (src_tile * self.n_tiles + dst_tile) * self.routes

    def pair_indices(self, src_tiles: np.ndarray, dst_tiles: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`pair_index`."""
        if self.routes == 1:
            return src_tiles * self.n_tiles + dst_tiles
        return (src_tiles * self.n_tiles + dst_tiles) * self.routes

    # -- construction --------------------------------------------------------------

    def _build(self) -> None:
        """Walk-once vectorized build (see the module docstring).

        The matrices are bit-identical to :meth:`_build_legacy`.
        """
        network = self.network
        for slot, path in _slot_paths(network, self.routes):
            self.signal_linear[slot] = path.total_linear
            self.insertion_loss_db[slot] = path.loss_db
        _accumulate_columns(
            _build_tables(network, routes=self.routes), self.coupling_linear
        )
        # The channel tables credit every victim including the aggressor
        # itself (the legacy builder excluded it up front); self-coupling
        # is exactly the diagonal, which the physics defines as zero.
        np.fill_diagonal(self.coupling_linear, 0.0)

    def _build_legacy(self) -> None:
        """The seed per-aggressor walk loop, kept as the parity oracle.

        Pure Python, O(aggressor traversals x walk length x entries per
        element); the vectorized :meth:`_build` must reproduce it bit for
        bit (``tests/models/test_model_build.py``).
        """
        network = self.network
        params = network.params
        paths = network.all_paths()

        # Exit index: (element, out_port) -> [(pair, position), ...] for the
        # direct joins at the emitting element. Entry index: element ->
        # [(pair, position, in_port), ...] for the walk joins (a walk joins
        # a victim only by co-entering the first shared element).
        exit_index: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        entry_index: Dict[int, List[Tuple[int, int, int]]] = {}
        pair_paths: Dict[int, object] = {}
        for (src, dst), path in paths.items():
            pair = self.pair_index(src, dst)
            pair_paths[pair] = path
            self.signal_linear[pair] = path.total_linear
            self.insertion_loss_db[pair] = path.loss_db
            for position, step in enumerate(path.traversals):
                exit_index.setdefault((step.element, step.out_port), []).append(
                    (pair, position)
                )
                entry_index.setdefault(step.element, []).append(
                    (pair, position, step.in_port)
                )

        passive_linear = _passive_lookup(network)
        emissions_of = _emissions_lookup(params)

        coupling = self.coupling_linear
        follow = network.wiring.get
        elements = network.elements

        for (src, dst), path in paths.items():
            aggressor_pair = self.pair_index(src, dst)
            cum_in = path.cum_in_linear
            for index, step in enumerate(path.traversals):
                info = elements[step.element]
                if info.kind is ElementKind.WAVEGUIDE:
                    continue
                emitted = emissions_of(info.kind, step.in_port, step.out_port, step.state)
                if not emitted:
                    continue
                power_at_input = cum_in[index]
                for k_linear, emission_port in emitted:
                    base = k_linear * power_at_input
                    credited = set()
                    credited.add(aggressor_pair)
                    # Join at the emitting element: no loss inside the
                    # generating switch.
                    for victim_pair, position in exit_index.get(
                        (step.element, emission_port), ()
                    ):
                        if victim_pair in credited:
                            continue
                        credited.add(victim_pair)
                        victim = pair_paths[victim_pair]
                        coupling[victim_pair, aggressor_pair] += (
                            base
                            * victim.total_linear
                            / victim.cum_out_linear[position]
                        )
                    # Walk forward until attenuated away. The first shared
                    # element decides for each victim: a co-entering victim
                    # receives the noise (it follows the victim's configured
                    # route from there); any other encounter shields the
                    # victim (crossing guide, or its ON ring diverts the
                    # noise — a second-order residual the model zeroes).
                    walk_loss = 1.0
                    position_next = follow((step.element, emission_port))
                    steps = 0
                    while (
                        position_next is not None
                        and walk_loss > WALK_LOSS_CUTOFF_LINEAR
                        and steps < _MAX_WALK_STEPS
                    ):
                        steps += 1
                        element, in_port = position_next
                        for victim_pair, position, victim_in in entry_index.get(
                            element, ()
                        ):
                            if victim_pair in credited:
                                continue
                            credited.add(victim_pair)
                            if victim_in != in_port:
                                continue
                            victim = pair_paths[victim_pair]
                            coupling[victim_pair, aggressor_pair] += (
                                base
                                * walk_loss
                                * victim.total_linear
                                / victim.cum_in_linear[position]
                            )
                        walk_loss *= passive_linear(element, in_port)
                        position_next = follow(
                            (element, straight_output(elements[element].kind, in_port))
                        )

    # -- caching ---------------------------------------------------------------------

    @staticmethod
    def cache_key(network: PhotonicNoC, dtype, routes: int = 1) -> str:
        """Process-cache key of the model for ``network`` at ``dtype``.

        Routed models (``routes > 1``) get a distinct key; single-route
        keys are byte-identical to the pre-routing layout, so existing
        cache entries stay valid.
        """
        key = f"{network.signature}|{np.dtype(dtype).name}"
        if routes > 1:
            key += f"|routes={int(routes)}"
        return key

    @classmethod
    def register(cls, key: str, model: "CouplingModel") -> None:
        """Seed the process cache (TCP workers register the models they
        load from disk or receive by streamed transfer)."""
        _CACHE[key] = model

    # The three persisted arrays; CSR / transpose stay derived (cheap
    # relative to the build, and dtype-dependent consumers rebuild them).
    _DISK_ARRAYS = ("signal_linear", "insertion_loss_db", "coupling_linear")

    @staticmethod
    def disk_key(signature: str, dtype, routes: int = 1) -> str:
        """On-disk cache entry name for ``(signature, routes, dtype, version)``.

        A hash, not the raw signature: signatures embed the full physical
        parameter table and overflow path-component limits on big
        parameter sets. ``routes == 1`` hashes the pre-routing text, so
        existing single-route entries keep their names.
        """
        text = f"{signature}|{np.dtype(dtype).name}|v{MODEL_VERSION}"
        if routes > 1:
            text = (
                f"{signature}|routes={int(routes)}"
                f"|{np.dtype(dtype).name}|v{MODEL_VERSION}"
            )
        return hashlib.sha1(text.encode()).hexdigest()

    @classmethod
    def load_cached(
        cls, network: PhotonicNoC, dtype, cache_dir: str, routes: int = 1
    ) -> Optional["CouplingModel"]:
        """Load a model from the on-disk cache, or ``None`` on any miss.

        The arrays come back as read-only memory maps — a warm load is
        I/O-free until the matrices are touched. Every failure mode
        (absent entry, key mismatch after a hash collision, truncated or
        corrupted arrays, unreadable metadata) returns ``None`` so the
        caller rebuilds; the cache can only ever be a fast path.
        """
        entry = os.path.join(
            str(cache_dir), cls.disk_key(network.signature, dtype, routes=routes)
        )
        try:
            with open(os.path.join(entry, "meta.json")) as handle:
                meta = json.load(handle)
            if (
                meta.get("signature") != network.signature
                or meta.get("dtype") != np.dtype(dtype).name
                or meta.get("model_version") != MODEL_VERSION
                or int(meta.get("routes", 1)) != int(routes)
            ):
                return None
            arrays = {
                name: np.load(
                    os.path.join(entry, f"{name}.npy"), mmap_mode="r"
                )
                for name in cls._DISK_ARRAYS
            }
            n_tiles = network.topology.n_tiles
            n_pairs = n_tiles * n_tiles * int(routes)
            if (
                arrays["signal_linear"].shape != (n_pairs,)
                or arrays["insertion_loss_db"].shape != (n_pairs,)
                or arrays["coupling_linear"].shape != (n_pairs, n_pairs)
                or arrays["coupling_linear"].dtype != np.dtype(dtype)
            ):
                return None
            model = cls.__new__(cls)
            model.network = network
            model.n_tiles = n_tiles
            model.routes = int(routes)
            model.n_pairs = n_pairs
            model.signal_linear = arrays["signal_linear"]
            model.insertion_loss_db = arrays["insertion_loss_db"]
            model.coupling_linear = arrays["coupling_linear"]
            model._coupling_T = None
            model._csr = None
            # nnz ships in the metadata: auto-backend evaluators resolve
            # without faulting the whole memory-mapped matrix in.
            nnz = meta.get("nnz")
            model._nnz = int(nnz) if nnz is not None else None
            return model
        except Exception:
            return None

    def save_cached(self, cache_dir: str) -> Optional[str]:
        """Persist this model's arrays into the on-disk cache.

        Writes into a private temporary directory and renames it into
        place, so readers only ever see complete entries; a concurrent
        writer winning the rename (or an unwritable ``cache_dir``) makes
        this a silent no-op returning ``None`` — persisting is always
        best-effort.
        """
        directory = str(cache_dir)
        entry = os.path.join(
            directory,
            self.disk_key(
                self.network.signature,
                self.coupling_linear.dtype,
                routes=self.routes,
            ),
        )
        tmp = f"{entry}.tmp.{os.getpid()}"
        try:
            os.makedirs(tmp)
            for name in self._DISK_ARRAYS:
                np.save(
                    os.path.join(tmp, f"{name}.npy"),
                    np.ascontiguousarray(getattr(self, name)),
                )
            meta = {
                "signature": self.network.signature,
                "dtype": self.coupling_linear.dtype.name,
                "model_version": MODEL_VERSION,
                "n_tiles": self.n_tiles,
                "routes": self.routes,
                "nnz": self.nnz,
            }
            with open(os.path.join(tmp, "meta.json"), "w") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
            if os.path.isdir(entry):  # stale/corrupt entry: replace it
                import shutil

                shutil.rmtree(entry, ignore_errors=True)
            os.replace(tmp, entry)
            return entry
        except OSError:
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
            return None

    def export_arrays(self) -> dict:
        """Pack this model's arrays for a one-time streamed transfer.

        The cache-miss fallback of distributed hydration: when a remote
        worker holds neither a process- nor disk-cached model for a
        cache key, the scheduler streams this payload once and the
        worker persists it (:meth:`from_arrays` + :meth:`save_cached`),
        making every later hydration key-only again. Same array set as
        the disk cache (:attr:`_DISK_ARRAYS`), so a streamed model is
        bit-identical to a built or disk-loaded one.
        """
        payload = {
            name: np.ascontiguousarray(getattr(self, name))
            for name in self._DISK_ARRAYS
        }
        payload["nnz"] = self.nnz
        payload["routes"] = self.routes
        return payload

    @classmethod
    def from_arrays(cls, network: PhotonicNoC, payload: dict) -> "CouplingModel":
        """Rebuild a model from an :meth:`export_arrays` payload."""
        n_tiles = network.topology.n_tiles
        routes = int(payload.get("routes", 1))
        n_pairs = n_tiles * n_tiles * routes
        coupling = np.asarray(payload["coupling_linear"])
        if coupling.shape != (n_pairs, n_pairs):
            raise ModelError(
                f"streamed coupling matrix has shape {coupling.shape}, "
                f"expected {(n_pairs, n_pairs)} for {network.signature!r} "
                f"at routes={routes}"
            )
        model = cls.__new__(cls)
        model.network = network
        model.n_tiles = n_tiles
        model.routes = routes
        model.n_pairs = n_pairs
        model.signal_linear = np.asarray(payload["signal_linear"])
        model.insertion_loss_db = np.asarray(payload["insertion_loss_db"])
        model.coupling_linear = coupling
        model._coupling_T = None
        model._csr = None
        nnz = payload.get("nnz")
        model._nnz = int(nnz) if nnz is not None else None
        return model

    @classmethod
    def for_network(
        cls,
        network: PhotonicNoC,
        dtype=np.float64,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        routes: int = 1,
    ) -> "CouplingModel":
        """Build (or fetch from a cache) the model for a network.

        Resolution order: the process cache (when ``use_cache``), then
        the on-disk cache (``cache_dir``, defaulting to
        :func:`get_model_cache_dir`; loaded models are read-only memory
        maps), then a fresh build, which is persisted back to the disk
        cache best-effort. Every path yields bit-identical matrices.
        """
        key = cls.cache_key(network, dtype, routes=routes)
        if use_cache:
            cached = _CACHE.get(key)
            if cached is not None:
                return cached
        directory = cache_dir if cache_dir is not None else get_model_cache_dir()
        model = None
        if directory:
            model = cls.load_cached(network, dtype, directory, routes=routes)
        if model is None:
            model = cls(network, dtype=dtype, routes=routes)
            if directory:
                model.save_cached(directory)
        if use_cache:
            _CACHE[key] = model
        return model


def clear_model_cache() -> None:
    """Drop all cached coupling models."""
    _CACHE.clear()
