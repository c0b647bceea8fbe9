"""Engineering benchmarks: the costs behind every experiment.

Not paper artefacts — these time the two workhorses so regressions in the
coupling-model build or the vectorized evaluator are caught:

* coupling-model construction per architecture (paths + emission walks),
* mapping-evaluation throughput (the optimizers' inner loop).

Paper artefact: none (engineering regression bench).
Expected runtime: ~1 minute.
"""

import numpy as np
import pytest

from repro.appgraph import load_benchmark
from repro.core import MappingEvaluator, MappingProblem
from repro.core.mapping import random_assignment_batch
from repro.models import CouplingModel
from repro.noc import PhotonicNoC, mesh, torus


@pytest.mark.parametrize(
    "topology_name,build", [("mesh", mesh), ("torus", torus)]
)
def test_coupling_model_build_4x4(benchmark, topology_name, build):
    def construct():
        network = PhotonicNoC(build(4, 4))
        return CouplingModel(network)

    model = benchmark.pedantic(construct, rounds=3, iterations=1, warmup_rounds=0)
    assert model.coupling_linear.shape == (256, 256)


def test_batch_evaluation_throughput(benchmark):
    cg = load_benchmark("vopd")
    network = PhotonicNoC(mesh(4, 4))
    evaluator = MappingEvaluator(MappingProblem(cg, network, "snr"))
    rng = np.random.default_rng(0)
    batch = random_assignment_batch(4096, cg.n_tasks, 16, rng)

    metrics = benchmark(evaluator.evaluate_batch, batch)
    assert metrics.score.shape == (4096,)


def test_single_evaluation_latency(benchmark):
    cg = load_benchmark("vopd")
    network = PhotonicNoC(mesh(4, 4))
    evaluator = MappingEvaluator(MappingProblem(cg, network, "snr"))
    assignment = np.arange(cg.n_tasks)

    metrics = benchmark(evaluator.evaluate, assignment)
    assert metrics.worst_insertion_loss_db < 0
