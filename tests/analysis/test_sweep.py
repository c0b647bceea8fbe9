"""Device-parameter sweeps: deterministic points, warm-by-construction cache.

The sweep's promise (PR 8): every grid point is content-addressed
through the component library, so the point's coupling model is keyed by
its parameter hash in both the process cache and the on-disk cache — a
second sweep of the same grid builds **zero** models
(:data:`repro.models.coupling.BUILD_COUNT` proves it), and the same seed
at every point makes the whole sweep a pure function of
``(cg, grid, seed)``.
"""

from __future__ import annotations

import json

import pytest

import repro.models.coupling as coupling_mod
from repro.analysis import grid_points, sweep_device_points
from repro.errors import ConfigurationError
from repro.models.coupling import clear_model_cache
from repro.photonics import VariationSpec, default_library

GRID = (
    ("crossing_loss_db", (-0.04, -0.08)),
    ("crossing_crosstalk_db", (-40.0, -35.0)),
)


def _sweep(pip_cg, **kwargs):
    options = dict(
        topology="mesh",
        side=3,
        strategy="rs",
        budget=120,
        seed=5,
    )
    options.update(kwargs)
    return sweep_device_points(pip_cg, GRID, **options)


class TestGridPoints:
    def test_cartesian_order_and_registration(self):
        points = grid_points(GRID)
        assert len(points) == 4
        # Last axis fastest (row-major).
        assert [p[0]["crossing_crosstalk_db"] for p in points] == [
            -40.0,
            -35.0,
            -40.0,
            -35.0,
        ]
        library = default_library()
        for _overrides, params in points:
            assert library.resolve(f"date16@{params.content_hash[:12]}") == params

    def test_base_point_is_the_resolved_base(self):
        ((overrides, params),) = grid_points(())
        assert overrides == {}
        assert params == default_library().resolve("date16")

    def test_repeated_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_points(
                (("crossing_loss_db", (-0.1,)), ("crossing_loss_db", (-0.2,)))
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_points((("crossing_loss_db", ()),))

    def test_identical_content_identical_key(self):
        """Overriding a coefficient to its default is the same point."""
        ((_, explicit),) = grid_points((("crossing_crosstalk_db", (-40.0,)),))
        base = default_library().resolve("date16")
        assert explicit.content_hash == base.content_hash


class TestSweep:
    @pytest.fixture(autouse=True)
    def _cold_process_cache(self):
        """Start from a cold process cache: a model warmed by an earlier
        test would be returned without persisting to this test's private
        disk cache, making the warm-sweep assertions vacuous."""
        clear_model_cache()
        yield

    def test_sweep_is_deterministic_per_seed(self, pip_cg, model_cache):
        first = _sweep(pip_cg)
        clear_model_cache()
        second = _sweep(pip_cg)
        assert [p.key for p in first.points] == [p.key for p in second.points]
        assert [p.score for p in first.points] == [
            p.score for p in second.points
        ]
        assert first.best().key == second.best().key

    def test_second_sweep_builds_zero_models(self, pip_cg, model_cache):
        """The acceptance criterion: a warm re-sweep never builds a model.

        The process cache is dropped between the sweeps, so every model
        resolution must go through the on-disk cache — and hit.
        """
        _sweep(pip_cg)
        clear_model_cache()
        before = coupling_mod.BUILD_COUNT
        _sweep(pip_cg)
        assert coupling_mod.BUILD_COUNT == before

    def test_robust_objective_sweeps_sample_models_warm(self, pip_cg, model_cache):
        """Variation sample models ride the same content-hash cache chain."""
        variation = VariationSpec(n_samples=2, sigma=0.03, seed=7)
        grid = (("crossing_loss_db", (-0.04, -0.06)),)
        sweep_device_points(
            pip_cg,
            grid,
            topology="mesh",
            side=3,
            objective="robust_snr",
            variation=variation,
            strategy="rs",
            budget=80,
            seed=3,
        )
        clear_model_cache()
        before = coupling_mod.BUILD_COUNT
        result = sweep_device_points(
            pip_cg,
            grid,
            topology="mesh",
            side=3,
            objective="robust_snr",
            variation=variation,
            strategy="rs",
            budget=80,
            seed=3,
        )
        assert coupling_mod.BUILD_COUNT == before
        assert len(result.points) == 2

    def test_format_mentions_every_point(self, pip_cg):
        result = _sweep(pip_cg)
        text = result.format()
        for point in result.points:
            assert point.key in text
        assert "Device sweep" in text

    def test_points_serialize_to_json(self, pip_cg):
        """SweepPoint fields survive a JSON round trip (the CLI's --json-out)."""
        result = _sweep(pip_cg)
        document = json.dumps(
            [
                {
                    "key": p.key,
                    "overrides": p.overrides,
                    "content_hash": p.content_hash,
                    "score": p.score,
                }
                for p in result.points
            ]
        )
        assert json.loads(document)[0]["key"] == result.points[0].key
