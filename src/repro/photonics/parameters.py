"""Physical parameters of the photonic building blocks (paper Table I).

The defaults reproduce Table I of the paper exactly; every coefficient is a
*power ratio in dB* (negative values mean attenuation), except the
propagation loss which is in dB/cm. All coefficients can be overridden to
model a different technology node, which is how the paper's "Physical
Parameters" library box (Fig. 1) is realized here.

Content addressing and process variation (PR 8)
-----------------------------------------------
Every parameter set carries a **canonical content hash**
(:attr:`PhysicalParameters.content_hash`): the SHA-1 of an injective text
encoding of its coefficients (``float.hex`` per field, in declaration
order). Two distinct parameter sets can therefore never serialize to the
same text — the hash input is unique by construction — and the hash is
what the network signature, the on-disk model cache and the objective-free
pool keys embed, which is what makes device-library parameter sweeps a
cache-hitting axis of the design-space exploration.

:class:`VariationSpec` describes per-device process variation (Chittamuru
et al.): :func:`perturbed` scales every coefficient by ``1 + sigma * g``
with ``g`` drawn from a per-sample ``SeedSequence``-derived stream, and
:meth:`VariationSpec.samples` materializes the N perturbed parameter sets.
Sample ``i`` depends only on ``(seed, i)`` (``SeedSequence.spawn`` is
prefix-stable), ``sigma=0`` reproduces the nominal set bit-exactly, and
:func:`sample_set_hash` fingerprints a sample collection independent of
order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.photonics.units import db_to_linear

__all__ = [
    "PhysicalParameters",
    "TABLE_I_ROWS",
    "VariationSpec",
    "perturbed",
    "sample_set_hash",
]

#: Rows of Table I: (parameter description, notation, attribute, value, reference)
TABLE_I_ROWS: Tuple[Tuple[str, str, str, float, str], ...] = (
    ("Crossing loss", "Lc", "crossing_loss_db", -0.04, "[7]"),
    ("Propagation Loss in Silicon", "Lp", "propagation_loss_db_per_cm", -0.274, "[8]"),
    ("Power loss per PPSE in OFF state", "Lp,off", "ppse_off_loss_db", -0.005, "[9]"),
    ("Power loss per PPSE in ON state", "Lp,on", "ppse_on_loss_db", -0.5, "[9]"),
    ("Power loss per CPSE in OFF state", "Lc,off", "cpse_off_loss_db", -0.045, ""),
    ("Power loss per CPSE in ON state", "Lc,on", "cpse_on_loss_db", -0.5, "[10]"),
    ("Crossing's crosstalk coefficient", "Kc", "crossing_crosstalk_db", -40.0, "[7]"),
    ("Crosstalk coefficient per PSE in OFF state", "Kp,off", "pse_off_crosstalk_db", -20.0, "[9]"),
    ("Crosstalk coefficient per PSE in ON state", "Kp,on", "pse_on_crosstalk_db", -25.0, "[9]"),
)


@dataclass(frozen=True)
class PhysicalParameters:
    """Loss and crosstalk coefficients of the photonic building blocks.

    Attribute names follow Table I notation:

    ===========================  ========  ==============================
    attribute                    notation  meaning
    ===========================  ========  ==============================
    crossing_loss_db             Lc        loss across a waveguide crossing
    propagation_loss_db_per_cm   Lp        silicon waveguide propagation loss
    ppse_off_loss_db             Lp,off    through loss of an OFF parallel PSE
    ppse_on_loss_db              Lp,on     drop loss of an ON parallel PSE
    cpse_off_loss_db             Lc,off    through loss of an OFF crossing PSE
    cpse_on_loss_db              Lc,on     drop loss of an ON crossing PSE
    crossing_crosstalk_db        Kc        crossing crosstalk coefficient
    pse_off_crosstalk_db         Kp,off    OFF-state PSE crosstalk coefficient
    pse_on_crosstalk_db          Kp,on     ON-state PSE crosstalk coefficient
    ===========================  ========  ==============================
    """

    crossing_loss_db: float = -0.04
    propagation_loss_db_per_cm: float = -0.274
    ppse_off_loss_db: float = -0.005
    ppse_on_loss_db: float = -0.5
    cpse_off_loss_db: float = -0.045
    cpse_on_loss_db: float = -0.5
    crossing_crosstalk_db: float = -40.0
    pse_off_crosstalk_db: float = -20.0
    pse_on_crosstalk_db: float = -25.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value > 0.0:
                raise ConfigurationError(
                    f"physical parameter {f.name}={value} must be <= 0 dB "
                    "(these coefficients describe attenuation)"
                )

    # -- linear-domain views ------------------------------------------------

    @property
    def crossing_loss_linear(self) -> float:
        """Lc as a linear power ratio."""
        return db_to_linear(self.crossing_loss_db)

    @property
    def ppse_off_loss_linear(self) -> float:
        """Lp,off as a linear power ratio."""
        return db_to_linear(self.ppse_off_loss_db)

    @property
    def ppse_on_loss_linear(self) -> float:
        """Lp,on as a linear power ratio."""
        return db_to_linear(self.ppse_on_loss_db)

    @property
    def cpse_off_loss_linear(self) -> float:
        """Lc,off as a linear power ratio."""
        return db_to_linear(self.cpse_off_loss_db)

    @property
    def cpse_on_loss_linear(self) -> float:
        """Lc,on as a linear power ratio."""
        return db_to_linear(self.cpse_on_loss_db)

    @property
    def crossing_crosstalk_linear(self) -> float:
        """Kc as a linear power ratio."""
        return db_to_linear(self.crossing_crosstalk_db)

    @property
    def pse_off_crosstalk_linear(self) -> float:
        """Kp,off as a linear power ratio."""
        return db_to_linear(self.pse_off_crosstalk_db)

    @property
    def pse_on_crosstalk_linear(self) -> float:
        """Kp,on as a linear power ratio."""
        return db_to_linear(self.pse_on_crosstalk_db)

    # -- content addressing ---------------------------------------------------

    def canonical_text(self) -> str:
        """Injective text encoding of this parameter set.

        One ``name=hex`` term per coefficient, in field declaration
        order, with ``float.hex()`` values — an exact, lossless
        representation, so two distinct parameter sets can never encode
        to the same text. This is the hash input of
        :attr:`content_hash`, which makes hash collisions between
        distinct parameter sets impossible by construction (up to SHA-1
        itself).
        """
        return ";".join(
            f"{f.name}={float(getattr(self, f.name)).hex()}" for f in fields(self)
        )

    @property
    def content_hash(self) -> str:
        """SHA-1 hex digest of :meth:`canonical_text`.

        The canonical identity of this device parameter set: embedded in
        :attr:`repro.noc.network.PhotonicNoC.signature` and therefore in
        the on-disk model-cache key and the objective-free pool key.
        """
        return hashlib.sha1(self.canonical_text().encode()).hexdigest()

    # -- utilities -----------------------------------------------------------

    def propagation_loss_db(self, length_cm: float) -> float:
        """Propagation loss of a waveguide of ``length_cm`` centimetres."""
        if length_cm < 0.0:
            raise ConfigurationError(f"waveguide length {length_cm} cm must be >= 0")
        return self.propagation_loss_db_per_cm * length_cm

    def with_overrides(self, **overrides: float) -> "PhysicalParameters":
        """Return a copy with some coefficients replaced.

        Unknown names raise :class:`~repro.errors.ConfigurationError` instead
        of being silently ignored.
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigurationError(
                f"unknown physical parameter(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, float]:
        """All coefficients as a plain ``{attribute: value}`` dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def table_rows(self) -> Iterator[Tuple[str, str, float]]:
        """Yield ``(description, notation, value)`` rows in Table I order."""
        for description, notation, attribute, _default, _ref in TABLE_I_ROWS:
            yield description, notation, getattr(self, attribute)


# ---------------------------------------------------------------------------
# Process variation
# ---------------------------------------------------------------------------


def perturbed(
    params: PhysicalParameters, sigma: float, rng: np.random.Generator
) -> PhysicalParameters:
    """One process-variation sample of ``params``.

    Every coefficient is scaled by ``1 + sigma * g`` with ``g`` standard
    normal, drawn in field declaration order from ``rng`` (so the sample
    is a pure function of the generator state). Perturbed values are
    clipped to 0 dB: these coefficients describe attenuation, and a
    lucky draw must not turn a loss into gain.

    ``sigma=0`` reproduces ``params`` **bit-exactly**: the scale factor
    is exactly ``1.0`` and ``value * 1.0`` round-trips every float.
    """
    if not 0.0 <= sigma < math.inf:  # NaN fails too
        raise ConfigurationError(
            f"variation sigma {sigma} must be finite and >= 0"
        )
    draws = rng.standard_normal(len(fields(params)))
    values = {}
    for f, g in zip(fields(params), draws):
        value = float(getattr(params, f.name)) * (1.0 + float(sigma) * float(g))
        values[f.name] = min(0.0, value)
    return PhysicalParameters(**values)


def sample_set_hash(samples: "Tuple[PhysicalParameters, ...]") -> str:
    """Order-independent fingerprint of a collection of parameter sets.

    SHA-1 over the *sorted* per-sample content hashes: reordering the
    samples cannot change the digest, so any deterministic aggregation
    over the set (mean, quantile — both order-free per row) is keyed
    correctly whatever order the samples were materialized in.
    """
    digest = hashlib.sha1()
    for sample_hash in sorted(p.content_hash for p in samples):
        digest.update(sample_hash.encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class VariationSpec:
    """Process-variation sampling plan for robust objectives.

    Parameters
    ----------
    n_samples : int
        Number of perturbed device samples to score per mapping.
    sigma : float
        Relative per-coefficient perturbation scale (see
        :func:`perturbed`). ``0.0`` degenerates to ``n_samples`` copies
        of the nominal parameters, bit-exactly.
    seed : int
        Root seed of the ``SeedSequence`` stream; sample ``i`` depends
        only on ``(seed, i)``, never on ``n_samples`` (spawn is
        prefix-stable) or on which worker draws it.
    quantile : float, optional
        When given, robust objectives aggregate the per-sample scores as
        this quantile (e.g. ``0.1`` for a pessimistic tail); default
        ``None`` aggregates as the mean.
    """

    n_samples: int = 8
    sigma: float = 0.02
    seed: int = 0
    quantile: Optional[float] = None

    def __post_init__(self) -> None:
        if int(self.n_samples) < 1:
            raise ConfigurationError(
                f"variation n_samples {self.n_samples} must be >= 1"
            )
        if not 0.0 <= self.sigma < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"variation sigma {self.sigma} must be finite and >= 0"
            )
        if self.quantile is not None and not 0.0 <= self.quantile <= 1.0:
            raise ConfigurationError(
                f"variation quantile {self.quantile} must be in [0, 1]"
            )

    @property
    def fingerprint(self) -> str:
        """Exact identity of this sampling plan (pool-key component)."""
        q = "mean" if self.quantile is None else float(self.quantile).hex()
        return (
            f"n={int(self.n_samples)},sigma={float(self.sigma).hex()},"
            f"seed={int(self.seed)},agg={q}"
        )

    def samples(
        self, base: PhysicalParameters
    ) -> Tuple[PhysicalParameters, ...]:
        """The ``n_samples`` perturbed parameter sets of ``base``.

        Each sample draws from its own ``SeedSequence(seed).spawn``
        child, so the returned tuple is a pure function of
        ``(base, seed, sigma)`` per index — bit-identical wherever it is
        materialized (parent process, pool worker, remote worker).
        """
        children = np.random.SeedSequence(int(self.seed)).spawn(
            int(self.n_samples)
        )
        return tuple(
            perturbed(base, self.sigma, np.random.default_rng(child))
            for child in children
        )
