"""Noise-breakdown report tests."""

import numpy as np
import pytest

from repro.analysis.inspect import edge_noise_breakdown, mapping_report
from repro.appgraph.benchmarks import load_benchmark
from repro.core.evaluator import MappingEvaluator
from repro.core.mapping import random_assignment
from repro.core.problem import MappingProblem
from repro.errors import ConfigurationError


@pytest.fixture()
def assignment():
    return np.arange(8)


class TestBreakdown:
    def test_shares_sum_to_one(self, pip_evaluator, assignment):
        contributions = edge_noise_breakdown(pip_evaluator, assignment, 0)
        if contributions:
            assert sum(c.share for c in contributions) == pytest.approx(1.0)

    def test_sorted_strongest_first(self, pip_evaluator, assignment):
        contributions = edge_noise_breakdown(pip_evaluator, assignment, 1)
        values = [c.coupling_linear for c in contributions]
        assert values == sorted(values, reverse=True)

    def test_top_limits(self, pip_evaluator, assignment):
        full = edge_noise_breakdown(pip_evaluator, assignment, 1)
        if len(full) > 1:
            limited = edge_noise_breakdown(pip_evaluator, assignment, 1, top=1)
            assert len(limited) == 1
            assert limited[0] == full[0]

    def test_breakdown_matches_evaluator_noise(self, pip_evaluator, assignment):
        metrics = pip_evaluator.evaluate(assignment, with_edges=True)
        for victim in range(pip_evaluator.cg.n_edges):
            contributions = edge_noise_breakdown(pip_evaluator, assignment, victim)
            total = sum(c.coupling_linear for c in contributions)
            assert total == pytest.approx(
                float(metrics.edges.noise_linear[victim]), rel=1e-9, abs=1e-18
            )

    def test_excluded_aggressors_absent(self, pip_evaluator, assignment):
        """Serialized pairs (shared src/dst task) never appear."""
        cg = pip_evaluator.cg
        mask = cg.serialization_mask()
        for victim in range(cg.n_edges):
            contributions = edge_noise_breakdown(pip_evaluator, assignment, victim)
            for c in contributions:
                assert mask[victim, c.aggressor_edge]

    def test_bad_edge_index(self, pip_evaluator, assignment):
        with pytest.raises(ConfigurationError):
            edge_noise_breakdown(pip_evaluator, assignment, 99)


class TestReport:
    def test_report_renders(self, pip_evaluator, assignment):
        text = mapping_report(pip_evaluator, assignment)
        assert "mapping report: pip" in text
        assert "worst SNR" in text
        assert "noise into" in text

    def test_report_contains_every_edge(self, pip_evaluator, assignment):
        text = mapping_report(pip_evaluator, assignment)
        for edge in pip_evaluator.cg.edges:
            label = (
                f"{pip_evaluator.cg.tasks[edge.src]}->"
                f"{pip_evaluator.cg.tasks[edge.dst]}"
            )
            assert label in text

    def test_report_does_not_count_as_search(self, pip_evaluator, assignment):
        pip_evaluator.reset_count()
        mapping_report(pip_evaluator, assignment)
        assert pip_evaluator.evaluations == 0


class TestJointVectors:
    """A routed evaluator's joint vectors: assignment plus route genes."""

    @pytest.fixture(scope="class")
    def routed(self, torus4_network):
        problem = MappingProblem(load_benchmark("mwd"), torus4_network, routes=2)
        evaluator = MappingEvaluator(problem)
        rng = np.random.default_rng(5)
        assignment = random_assignment(evaluator.n_tasks, evaluator.n_tiles, rng)
        genes = np.zeros(evaluator.n_edges, dtype=np.int64)
        rerouted = np.nonzero(evaluator.edge_menu_sizes(assignment) > 1)[0][:3]
        genes[rerouted] = 1
        return evaluator, np.concatenate([assignment, genes])

    def test_breakdown_sums_to_the_routed_noise(self, routed):
        evaluator, vector = routed
        assert np.count_nonzero(vector[evaluator.n_tasks:]) == 3
        noise = evaluator.evaluate(vector, with_edges=True).edges.noise_linear
        base = evaluator.evaluate(
            vector[: evaluator.n_tasks], with_edges=True
        ).edges.noise_linear
        assert not np.allclose(noise, base)  # the genes change the noise
        for victim in range(evaluator.n_edges):
            contributions = edge_noise_breakdown(evaluator, vector, victim)
            total = sum(c.coupling_linear for c in contributions)
            assert total == pytest.approx(float(noise[victim]), rel=1e-12, abs=0.0)

    def test_report_renders(self, routed):
        evaluator, vector = routed
        text = mapping_report(evaluator, vector)
        assert "mapping report: mwd" in text
        assert "noise into" in text
