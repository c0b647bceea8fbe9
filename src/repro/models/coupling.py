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
the evaluator's sparse noise kernel streams instead of gathering from the
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
loop. The legacy builder is kept
(``builder="legacy"``) as the cross-validation oracle for tests and
benches.

The build has no per-traversal Python loop: the network elaborates each
path as arrays concatenated from per-connection router templates
(:mod:`repro.noc.network`), the builder concatenates those arrays once,
finds every traversal's emission with one table lookup, and resolves
first encounters for bounded blocks of channels with one minimum scatter
each. Only the per-channel walks run in Python.

On top of the fast build sits an on-disk model cache
(:meth:`CouplingModel.for_network` with ``cache_dir=``, or the
process-wide :func:`set_model_cache_dir` default / the
``PHONOCMAP_MODEL_CACHE`` environment variable): finished models are
persisted as ``.npy`` files keyed by ``(network.signature,
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
from repro.noc.paths import TRAVERSAL_STATES
from repro.photonics.elements import (
    ElementKind,
    is_valid_traversal,
    passive_loss_db,
    straight_output,
    traversal_emissions,
)
from repro.photonics.units import db_to_linear

__all__ = [
    "MODEL_VERSION",
    "CouplingCSR",
    "CouplingModel",
    "cached_network",
    "clear_model_cache",
    "set_model_cache_dir",
    "get_model_cache_dir",
]

#: Version of the build physics / on-disk layout. Bump whenever the
#: builder's numerics or the cache file format change: the disk key
#: includes it, so stale entries miss instead of resurrecting old physics.
MODEL_VERSION = 1

_CACHE: Dict[str, "CouplingModel"] = {}

#: The network of every process-cached model, by signature (the first
#: one cached wins). :func:`cached_network` serves it, so callers reuse
#: a netlist exactly as long as the process keeps a model for it.
_NETWORKS: Dict[str, PhotonicNoC] = {}

#: Element kinds by kind code (the build's emission-table index).
_KINDS: Tuple[ElementKind, ...] = tuple(ElementKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}

#: Process-wide count of from-scratch model builds (every cache-miss
#: construction increments it). Observability for cache-effectiveness
#: assertions: a warm device-parameter sweep must leave it unchanged.
BUILD_COUNT = 0

#: Process-wide default directory of the on-disk model cache (``None``
#: disables it). Seeded from ``PHONOCMAP_MODEL_CACHE``; the CLI's
#: ``--model-cache`` overrides it for the duration of one command.
_MODEL_CACHE_DIR: Optional[str] = os.environ.get("PHONOCMAP_MODEL_CACHE") or None


def set_model_cache_dir(path: Optional[str]) -> None:
    """Set the process-wide default on-disk model cache directory.

    ``None`` disables the default (explicit ``cache_dir=`` arguments
    still work). Worker code does not call this: each worker context
    hands its cache directory to the evaluators it builds, so a worker
    hosted on a thread cannot change the default for its whole process.
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
    values: np.ndarray  # (nnz,) float64
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
    values = np.empty(nnz, dtype=np.float64)
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


def _emission_table(params) -> Tuple[np.ndarray, np.ndarray]:
    """Every traversal's emission as flat ``(k_linear, out_port)`` tables.

    Indexed by ``((kind * 4 + in_port) * 4 + out_port) * 2 + state``
    (kind codes index ``_KINDS``, state codes
    :data:`~repro.noc.paths.TRAVERSAL_STATES`); ``out_port`` is -1 where
    the traversal emits nothing. The physics emits at most once per
    traversal, which lets the builder find every emission with one
    lookup per traversal.
    """
    emissions_of = _emissions_lookup(params)
    size = len(_KINDS) * 4 * 4 * len(TRAVERSAL_STATES)
    k_linear = np.zeros(size, dtype=np.float64)
    out_port = np.full(size, -1, dtype=np.int64)
    index = 0
    for kind in _KINDS:
        for in_port in range(4):
            for port in range(4):
                for state in TRAVERSAL_STATES:
                    if is_valid_traversal(kind, in_port, port, state):
                        emitted = emissions_of(kind, in_port, port, state)
                        if len(emitted) > 1:
                            raise ModelError(
                                f"{kind.value} traversal emits "
                                f"{len(emitted)} times; the builder "
                                "supports one emission per traversal"
                            )
                        if emitted:
                            k_linear[index], out_port[index] = emitted[0]
                    index += 1
    return k_linear, out_port


#: Candidate entries plus first-encounter table cells per resolution
#: block: bounds the block's transient arrays to ~10 x 8 bytes x this
#: many entries (~40 MB).
_RESOLVE_BLOCK = 1 << 19


def _build_tables(network: PhotonicNoC, routes: int = 1) -> _BuildTables:
    """Flatten a network's paths and emission walks into build tables.

    Pure function of the network, on whole arrays: the paths' step
    arrays are concatenated once, every traversal's emission comes from
    one table lookup, and the emission-channel walks run exactly once per
    unique ``(element, out_port)`` channel (the legacy builder re-ran
    them once per aggressor traversal emitting into them). The
    per-victim join/credit loops become first-encounter resolutions over
    the flattened entry/exit indices, for bounded blocks of channels at
    a time.

    With ``routes > 1`` the same pipeline runs over the routed slot set
    (:func:`_slot_paths`): victims and aggressors are routed slots, so
    the matrix resolves the route axis of both sides of every coupling.
    """
    elements = network.elements
    follow = network.wiring.get
    paths = _slot_paths(network, routes)
    n_tiles = network.topology.n_tiles
    n_pairs = n_tiles * n_tiles * routes

    # Every traversal of every path, in slot-path order — the global
    # traversal id doubles as the legacy index-append rank.
    slots = np.array([slot for slot, _path in paths], dtype=np.int64)
    pair_total = np.zeros(n_pairs, dtype=np.float64)
    pair_total[slots] = [path.total_linear for _slot, path in paths]
    steps = np.concatenate([path.steps for _slot, path in paths])
    trav_pair = np.repeat(slots, [len(path) for _slot, path in paths])
    trav_elem, trav_in, trav_out, trav_state = np.ascontiguousarray(steps.T)
    trav_cum_in = np.concatenate([path.cum_in_linear for _slot, path in paths])
    trav_cum_out = np.concatenate(
        [path.cum_out_linear for _slot, path in paths]
    )

    # Entry index (element -> traversal ids) and exit index
    # ((element, out_port) -> traversal ids), grouped by stable sort so
    # within one group the ids keep the legacy append order. One gather
    # source holds both: exit ids first, entry ids after them.
    n_elements = len(elements)
    entry_order = np.argsort(trav_elem, kind="stable")
    entry_ptr = np.searchsorted(
        trav_elem[entry_order], np.arange(n_elements + 1, dtype=np.int64)
    )
    exit_key = trav_elem * 4 + trav_out  # ports are < 4
    exit_order = np.argsort(exit_key, kind="stable")
    exit_key_sorted = exit_key[exit_order]
    source = np.concatenate([exit_order, entry_order])
    entry_offset = len(exit_order)

    # Emission instances, in the legacy builder's iteration order: every
    # emitting traversal, by traversal id.
    kind_code = np.array(
        [_KIND_CODES[info.kind] for info in elements], dtype=np.int64
    )
    emit_k, emit_port = _emission_table(network.params)
    combo = (
        (kind_code[trav_elem] * 4 + trav_in) * 4 + trav_out
    ) * 2 + trav_state
    trav_port = emit_port[combo]
    inst_tid = np.flatnonzero(trav_port >= 0)
    inst_base = emit_k[combo[inst_tid]] * trav_cum_in[inst_tid]

    # Channel ids in first-appearance order over the instances.
    keys, first_inst, inverse = np.unique(
        trav_elem[inst_tid] * 4 + trav_port[inst_tid],
        return_index=True,
        return_inverse=True,
    )
    by_appearance = np.argsort(first_inst)
    channel_rank = np.empty_like(by_appearance)
    channel_rank[by_appearance] = np.arange(len(keys), dtype=np.int64)
    channel_keys = keys[by_appearance]
    exit_lo = np.searchsorted(exit_key_sorted, channel_keys)
    exit_len = np.searchsorted(exit_key_sorted, channel_keys + 1) - exit_lo

    # Walk each channel once, then resolve first encounters for blocks of
    # channels. A channel's walk *slots* are slot 0, the join at the
    # emitting element itself (victims that exit through the emission
    # port; no loss inside the generating switch), and slots 1..L, the
    # forward walk — same termination rules as the legacy builder, plus
    # two exact shortcuts the legacy loop pays for in full: a repeated
    # walk *position* means the rest of the walk is a lap of a cycle
    # (torus orbits) that can credit nothing new, and a repeated walk
    # *element* has already credited (or shielded) every pair entering it
    # at its first occurrence, so later occurrences carry no candidates.
    passive_linear = _passive_lookup(network)
    # (passive linear loss, next position) of every walked position.
    successor: Dict[Tuple[int, int], tuple] = {}
    entry_count = np.diff(entry_ptr).tolist()
    exit_count = exit_len.tolist()
    lookups = (source, entry_offset, entry_ptr, exit_lo, exit_len)
    traversal = (trav_pair, trav_in, trav_cum_in, trav_cum_out)
    # Seeded empty, so a network without emissions builds empty tables.
    ch_len_parts = [np.zeros(0, dtype=np.int64)]
    resolved = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    block: List[List] = [[], [], [], []]  # channel, element, in_port, loss
    block_first = block_size = 0
    for cid, key in enumerate(channel_keys.tolist()):
        element, emission_port = divmod(key, 4)
        block[0].append(cid)
        block[1].append(-1)  # -1 marks slot 0
        block[2].append(-1)
        block[3].append(1.0)
        block_size += exit_count[cid]
        seen_positions = set()
        seen_elements = set()
        walk_loss = 1.0
        position = follow((element, emission_port))
        steps_taken = 0
        while (
            position is not None
            and walk_loss > WALK_LOSS_CUTOFF_LINEAR
            and steps_taken < _MAX_WALK_STEPS
            and position not in seen_positions
        ):
            seen_positions.add(position)
            steps_taken += 1
            walk_element, in_port = position
            if walk_element not in seen_elements:
                seen_elements.add(walk_element)
                block[0].append(cid)
                block[1].append(walk_element)
                block[2].append(in_port)
                block[3].append(walk_loss)
                block_size += entry_count[walk_element]
            step = successor.get(position)
            if step is None:
                out_port = straight_output(elements[walk_element].kind, in_port)
                step = successor[position] = (
                    passive_linear(walk_element, in_port),
                    follow((walk_element, out_port)),
                )
            loss, position = step
            walk_loss *= loss
        block_cells = (cid + 1 - block_first) * n_pairs
        if (
            block_size + block_cells >= _RESOLVE_BLOCK
            or cid == len(channel_keys) - 1
        ):
            ch_len, found = _resolve_block(
                block, block_first, cid + 1, n_pairs, lookups, traversal
            )
            ch_len_parts.append(ch_len)
            resolved.append(found)
            block = [[], [], [], []]
            block_first, block_size = cid + 1, 0

    ch_len = np.concatenate(ch_len_parts)
    ch_start = np.zeros(len(ch_len), dtype=np.int64)
    np.cumsum(ch_len[:-1], out=ch_start[1:])
    ch_victim, ch_wl, ch_div = (
        np.concatenate([found[field] for found in resolved])
        for field in range(3)
    )
    return _BuildTables(
        n_pairs=n_pairs,
        inst_pair=trav_pair[inst_tid],
        inst_base=inst_base,
        inst_channel=channel_rank[inverse],
        ch_start=ch_start,
        ch_len=ch_len,
        ch_victim=ch_victim,
        ch_wl=ch_wl,
        ch_total=pair_total[ch_victim],
        ch_div=ch_div,
    )


def _resolve_block(
    block, first_channel, stop_channel, n_pairs, lookups, traversal
):
    """First-encounter tables of channels ``first_channel..stop_channel-1``.

    ``block`` lists the channels' walk slots (channel, element or -1 for
    slot 0, walk in-port, walk loss before the slot). A slot's
    candidates are the traversals leaving the emitting element through
    the emission port (slot 0) or entering the slot's element, in
    traversal-id order, so each channel's candidate list is ordered by
    (slot, traversal id), and a victim pair's first encounter is its
    lowest candidate index — found for every (channel, pair) cell at
    once by a minimum scatter into a dense cell table. Co-entering
    (port-matching) encounters, and every slot-0 one, credit the victim;
    any other first encounter shields it and is dropped.

    Returns ``(ch_len, (victim, walk_loss, divisor))`` with each channel's
    victims in ascending pair order.
    """
    source, entry_offset, entry_ptr, exit_lo, exit_len = lookups
    trav_pair, trav_in, trav_cum_in, trav_cum_out = traversal
    slot_channel = np.array(block[0], dtype=np.int64)
    slot_element = np.array(block[1], dtype=np.int64)
    slot_in = np.array(block[2], dtype=np.int64)
    slot_wl = np.array(block[3], dtype=np.float64)
    is_exit_slot = slot_element < 0
    walk_element = np.where(is_exit_slot, 0, slot_element)
    starts = np.where(
        is_exit_slot,
        exit_lo[slot_channel],
        entry_offset + entry_ptr[walk_element],
    )
    lens = np.where(
        is_exit_slot,
        exit_len[slot_channel],
        entry_ptr[walk_element + 1] - entry_ptr[walk_element],
    )
    total = int(lens.sum())
    cand_slot = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    cand_tid = source[
        np.repeat(starts - (np.cumsum(lens) - lens), lens)
        + np.arange(total, dtype=np.int64)
    ]
    cand_channel = slot_channel[cand_slot] - first_channel
    cand_cell = cand_channel * n_pairs + trav_pair[cand_tid]
    first = np.full((stop_channel - first_channel) * n_pairs, total, np.int64)
    np.minimum.at(first, cand_cell, np.arange(total, dtype=np.int64))
    win = first[first < total]  # in (channel, pair) order
    win_slot = cand_slot[win]
    win_tid = cand_tid[win]
    is_exit = is_exit_slot[win_slot]
    keep = is_exit | (trav_in[win_tid] == slot_in[win_slot])
    win_slot = win_slot[keep]
    win_tid = win_tid[keep]
    is_exit = is_exit[keep]
    ch_len = np.bincount(
        slot_channel[win_slot] - first_channel,
        minlength=stop_channel - first_channel,
    ).astype(np.int64)
    divisor = np.where(is_exit, trav_cum_out[win_tid], trav_cum_in[win_tid])
    return ch_len, (trav_pair[win_tid], slot_wl[win_slot], divisor)


#: Expanded scatter entries per accumulation chunk: bounds the transient
#: gather arrays to ~5 x 8 bytes x this many entries (~160 MB).
_SCATTER_CHUNK = 4 << 20


def _accumulate_columns(tables: _BuildTables, out: np.ndarray) -> None:
    """Scatter every aggressor's couplings into ``out``.

    ``out`` is the zeroed ``(n_pairs, n_pairs)`` C-contiguous float64
    matrix. Deterministic and legacy-exact: ``np.add.at`` applies
    entries sequentially, the same as the legacy ``+=``, and entries
    are ordered by emission instance, so every ``(victim, aggressor)``
    cell accumulates in the legacy order.
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
        self.coupling_linear = np.zeros((self.n_pairs, self.n_pairs), dtype=np.float64)
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
        the transpose it stays inside one row. Only dense-kernel delta
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

        The evaluator's sparse noise kernel streams these arrays instead of
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

        Deliberately cheaper than :meth:`csr`: every evaluator reads this
        on construction to pick its noise kernel
        (:func:`repro.core.evaluator.noise_kernel`), and most of them
        resolve to the dense kernel without ever needing the CSR arrays.
        """
        if self._csr is not None:
            return self._csr.nnz
        if self._nnz is None:
            self._nnz = int(np.count_nonzero(self.coupling_linear))
        return self._nnz

    @property
    def density(self) -> float:
        """Nonzero fraction of the coupling matrix (0.0 to 1.0).

        The statistic behind :func:`repro.core.evaluator.noise_kernel`:
        the sparse contraction streams ``nnz = density * n_pairs^2``
        values per evaluated mapping, the dense one gathers ``E^2``, so
        sparsity only pays off once the communication graph is
        edge-dense enough.
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
    def cache_key(network: PhotonicNoC, routes: int = 1) -> str:
        """Process-cache key of the model for ``network``.

        Routed models (``routes > 1``) get a distinct key.
        """
        key = network.signature
        if routes > 1:
            key += f"|routes={int(routes)}"
        return key

    # The three persisted arrays; CSR / transpose stay derived (cheap
    # relative to the build, and only some consumers need them).
    _DISK_ARRAYS = ("signal_linear", "insertion_loss_db", "coupling_linear")

    @staticmethod
    def disk_key(signature: str, routes: int = 1) -> str:
        """On-disk cache entry name for ``(signature, routes, version)``.

        A hash, not the raw signature: signatures embed the full physical
        parameter table and overflow path-component limits on big
        parameter sets. The hashed text keeps its historical ``float64``
        field, and ``routes == 1`` hashes the pre-routing text, so
        existing entries keep their names.
        """
        text = f"{signature}|float64|v{MODEL_VERSION}"
        if routes > 1:
            text = f"{signature}|routes={int(routes)}|float64|v{MODEL_VERSION}"
        return hashlib.sha1(text.encode()).hexdigest()

    @classmethod
    def load_cached(
        cls, network: PhotonicNoC, cache_dir: str, routes: int = 1
    ) -> Optional["CouplingModel"]:
        """Load a model from the on-disk cache, or ``None`` on any miss.

        The arrays come back as read-only memory maps — a warm load is
        I/O-free until the matrices are touched. Every failure mode
        (absent entry, key mismatch after a hash collision, truncated or
        corrupted arrays, unreadable metadata) returns ``None`` so the
        caller rebuilds; the cache can only ever be a fast path.
        """
        entry = os.path.join(
            str(cache_dir), cls.disk_key(network.signature, routes=routes)
        )
        try:
            with open(os.path.join(entry, "meta.json")) as handle:
                meta = json.load(handle)
            if (
                meta.get("signature") != network.signature
                or meta.get("dtype") != "float64"
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
            # Cache files are outside input: any dtype but float64 here
            # would shift scores.
            if (
                arrays["signal_linear"].shape != (n_pairs,)
                or arrays["signal_linear"].dtype != np.float64
                or arrays["insertion_loss_db"].shape != (n_pairs,)
                or arrays["insertion_loss_db"].dtype != np.float64
                or arrays["coupling_linear"].shape != (n_pairs, n_pairs)
                or arrays["coupling_linear"].dtype != np.float64
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
            # nnz ships in the metadata: evaluators pick their noise kernel
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
            self.disk_key(self.network.signature, routes=self.routes),
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
                "dtype": "float64",
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

    @classmethod
    def for_network(
        cls,
        network: PhotonicNoC,
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
        key = cls.cache_key(network, routes=routes)
        if use_cache:
            cached = _CACHE.get(key)
            if cached is not None:
                return cached
        directory = cache_dir if cache_dir is not None else get_model_cache_dir()
        model = None
        if directory:
            model = cls.load_cached(network, directory, routes=routes)
        if model is None:
            model = cls(network, routes=routes)
            if directory:
                model.save_cached(directory)
        if use_cache:
            _CACHE[key] = model
            _NETWORKS.setdefault(network.signature, network)
        return model


def cached_network(signature: str) -> Optional[PhotonicNoC]:
    """The network of a process-cached model with ``signature``, if any.

    The netlist a model built or loaded by :meth:`CouplingModel.for_network`
    holds anyway; sharing it is safe (see :class:`PhotonicNoC`).
    """
    return _NETWORKS.get(signature)


def clear_model_cache() -> None:
    """Drop all cached coupling models and the networks they hold."""
    _CACHE.clear()
    _NETWORKS.clear()
