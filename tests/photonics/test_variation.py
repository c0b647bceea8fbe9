"""Process-variation sampling math: the determinism substrate of robust_snr.

The robust objective's cross-executor bit-identity rests on three
properties of :mod:`repro.photonics.parameters`: ``sigma=0`` is the
nominal set bit-exactly, sample ``i`` is a pure function of
``(seed, i)`` (prefix-stable spawning), and the sample-set fingerprint
is order-independent while distinct sets can never collide by
construction (the hash input is an injective encoding).
"""

from __future__ import annotations

import itertools
from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.photonics import (
    PhysicalParameters,
    VariationSpec,
    perturbed,
    sample_set_hash,
)


@pytest.fixture
def params():
    return PhysicalParameters()


class TestPerturbed:
    def test_sigma_zero_is_bit_exact(self, params):
        """sigma=0 must reproduce every coefficient bit for bit."""
        sample = perturbed(params, 0.0, np.random.default_rng(7))
        assert sample == params
        assert sample.content_hash == params.content_hash

    def test_same_rng_state_same_sample(self, params):
        first = perturbed(params, 0.05, np.random.default_rng(3))
        second = perturbed(params, 0.05, np.random.default_rng(3))
        assert first == second

    def test_perturbed_values_stay_attenuating(self, params):
        """Huge sigma: lucky draws are clipped to 0 dB, never gain."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            sample = perturbed(params, 5.0, rng)
            for f in fields(sample):
                assert getattr(sample, f.name) <= 0.0

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_sigma_rejected(self, params, sigma):
        with pytest.raises(ConfigurationError, match="finite and >= 0"):
            perturbed(params, sigma, np.random.default_rng(0))


class TestVariationSpecSamples:
    def test_samples_are_deterministic(self, params):
        spec = VariationSpec(n_samples=5, sigma=0.03, seed=42)
        assert spec.samples(params) == spec.samples(params)

    def test_spawn_is_prefix_stable(self, params):
        """Sample i depends on (seed, i), never on n_samples."""
        short = VariationSpec(n_samples=3, sigma=0.03, seed=42).samples(params)
        long = VariationSpec(n_samples=8, sigma=0.03, seed=42).samples(params)
        assert long[: len(short)] == short

    def test_different_seeds_differ(self, params):
        a = VariationSpec(n_samples=4, sigma=0.03, seed=1).samples(params)
        b = VariationSpec(n_samples=4, sigma=0.03, seed=2).samples(params)
        assert a != b

    def test_sigma_zero_samples_are_nominal(self, params):
        for sample in VariationSpec(n_samples=4, sigma=0.0, seed=9).samples(
            params
        ):
            assert sample == params

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VariationSpec(n_samples=0)
        with pytest.raises(ConfigurationError):
            VariationSpec(sigma=-0.01)
        with pytest.raises(ConfigurationError):
            VariationSpec(quantile=1.5)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        """A NaN sigma used to pass ``sigma < 0`` and perturb every
        sample into nonsense."""
        with pytest.raises(ConfigurationError, match="sigma .* finite"):
            VariationSpec(sigma=sigma)

    def test_fingerprint_is_exact(self):
        spec = VariationSpec(n_samples=3, sigma=0.02, seed=7)
        assert spec.fingerprint == (
            f"n=3,sigma={float(0.02).hex()},seed=7,agg=mean"
        )
        tail = VariationSpec(n_samples=3, sigma=0.02, seed=7, quantile=0.1)
        assert tail.fingerprint.endswith(f"agg={float(0.1).hex()}")
        assert tail.fingerprint != spec.fingerprint


class TestSampleSetHash:
    def test_order_independent(self, params):
        samples = VariationSpec(n_samples=6, sigma=0.04, seed=5).samples(
            params
        )
        shuffled = list(samples)
        np.random.default_rng(1).shuffle(shuffled)
        assert sample_set_hash(samples) == sample_set_hash(tuple(shuffled))

    def test_different_sets_differ(self, params):
        a = VariationSpec(n_samples=4, sigma=0.04, seed=5).samples(params)
        b = VariationSpec(n_samples=4, sigma=0.04, seed=6).samples(params)
        assert sample_set_hash(a) != sample_set_hash(b)


class TestContentHashInjectivity:
    def test_canonical_text_is_injective_across_grid(self, params):
        """A grid of distinct parameter sets: no two texts (or hashes) equal.

        The canonical text encodes every coefficient as float.hex in
        field order, so distinct sets *cannot* collide — this sweeps a
        few dozen nearby points to demonstrate exactly that.
        """
        texts = set()
        hashes = set()
        count = 0
        for dl, dx in itertools.product(range(6), range(6)):
            point = params.with_overrides(
                crossing_loss_db=-0.04 - 1e-12 * dl,
                crossing_crosstalk_db=-40.0 - 1e-9 * dx,
            )
            texts.add(point.canonical_text())
            hashes.add(point.content_hash)
            count += 1
        assert len(texts) == count
        assert len(hashes) == count

    def test_equal_content_equal_hash(self, params):
        """An override equal to the default is the *same* point."""
        explicit = params.with_overrides(crossing_crosstalk_db=-40.0)
        assert explicit.content_hash == params.content_hash
