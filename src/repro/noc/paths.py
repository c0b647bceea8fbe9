"""Network-level path records: what a signal traverses end to end.

A :class:`NetworkPath` is the fully elaborated journey of one communication
through the photonic NoC: the ordered element traversals (router elements
and inter-router link waveguides), the total insertion loss, and the
cumulative linear transmissions before/after each traversal that the
crosstalk model needs (paper §II-C).

A path stores its traversals as arrays — :attr:`NetworkPath.steps` holds
one ``(element, in_port, out_port, state code)`` row per traversal, next to
the per-traversal ``losses_db`` — so network elaboration can concatenate
precomputed router templates and the coupling-model build can concatenate
whole paths without touching a traversal in Python. The tuple of
:class:`Traversal` records is materialized from the arrays on first access
of :attr:`NetworkPath.traversals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.photonics.elements import TraversalState

__all__ = ["Traversal", "NetworkPath", "TRAVERSAL_STATES", "STATE_CODES"]

#: Traversal states by state code: column 3 of :attr:`NetworkPath.steps`
#: holds ``STATE_CODES[state]``.
TRAVERSAL_STATES: Tuple[TraversalState, ...] = (
    TraversalState.PASSIVE,
    TraversalState.ON,
)
STATE_CODES = {state: code for code, state in enumerate(TRAVERSAL_STATES)}


@dataclass(frozen=True)
class Traversal:
    """One element traversal of a network path (global element id)."""

    element: int
    in_port: int
    out_port: int
    state: TraversalState


class NetworkPath:
    """An elaborated source-to-destination path with loss bookkeeping.

    ``steps``
        ``(n, 4)`` int64 array, one ``(element, in_port, out_port, state
        code)`` row per traversal (state codes index
        :data:`TRAVERSAL_STATES`).
    ``losses_db``
        ``(n,)`` float64 insertion loss of each traversal.
    ``cum_in_linear[i]``
        Product of the linear losses of traversals ``0..i-1`` — the relative
        signal power *entering* traversal ``i``.
    ``cum_out_linear[i]``
        Product including traversal ``i`` — the power *leaving* it.
    ``total_linear``
        End-to-end transmission (``cum_out_linear[-1]``).
    """

    def __init__(
        self,
        src: int,
        dst: int,
        traversals: Sequence[Traversal],
        losses_db: Sequence[float],
    ) -> None:
        if len(traversals) != len(losses_db):
            raise ValueError("one loss per traversal required")
        if not traversals:
            raise ValueError("a path needs at least one traversal")
        steps = np.array(
            [
                (t.element, t.in_port, t.out_port, STATE_CODES[t.state])
                for t in traversals
            ],
            dtype=np.int64,
        )
        self._set(src, dst, steps, np.asarray(losses_db, dtype=np.float64))
        self._traversals = tuple(traversals)

    @classmethod
    def from_arrays(
        cls, src: int, dst: int, steps: np.ndarray, losses_db: np.ndarray
    ) -> "NetworkPath":
        """A path over ``(n, 4)`` step rows and ``(n,)`` float64 losses.

        The arrays are taken as they are (no copy, no per-step check):
        this is the constructor of network elaboration, whose templates
        were checked once when they were built.
        """
        path = cls.__new__(cls)
        path._set(src, dst, steps, losses_db)
        path._traversals = None
        return path

    def _set(
        self, src: int, dst: int, steps: np.ndarray, losses: np.ndarray
    ) -> None:
        self.src = src
        self.dst = dst
        self.steps = steps
        self.losses_db = losses
        self.loss_db = float(losses.sum())
        linear = 10.0 ** (losses / 10.0)
        self.cum_out_linear = np.cumprod(linear)
        self.cum_in_linear = np.empty_like(self.cum_out_linear)
        self.cum_in_linear[0] = 1.0
        self.cum_in_linear[1:] = self.cum_out_linear[:-1]
        self.total_linear = float(self.cum_out_linear[-1])

    @property
    def traversals(self) -> Tuple[Traversal, ...]:
        """The traversals as :class:`Traversal` records (built on first use)."""
        if self._traversals is None:
            self._traversals = tuple(
                Traversal(element, in_port, out_port, TRAVERSAL_STATES[state])
                for element, in_port, out_port, state in self.steps.tolist()
            )
        return self._traversals

    def __len__(self) -> int:
        return len(self.losses_db)

    def __repr__(self) -> str:
        return (
            f"NetworkPath({self.src}->{self.dst}, "
            f"{len(self)} traversals, {self.loss_db:.3f} dB)"
        )
