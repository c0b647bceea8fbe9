"""The PhoNoCMap core: problem formulation, evaluation, optimization.

Box (4) of the paper's Fig. 1 — the design space exploration engine: the
mapping problem of §II-D.1, the mapping evaluator computing worst-case
power loss and SNR, and the pluggable optimization strategies (RS, GA and
R-PBLA from the paper, plus simulated annealing and tabu search
extensions).
"""

from repro.core.annealing import SimulatedAnnealing
from repro.core.delta import DeltaEvaluator, delta_engine
from repro.core.dse import DesignSpaceExplorer
from repro.core.evaluator import (
    BatchMetrics,
    EdgeMetrics,
    MappingEvaluator,
    MappingMetrics,
    PendingBatch,
)
from repro.core.genetic import (
    GeneticAlgorithm,
    pmx_crossover,
    pmx_crossover_batch,
)
from repro.core.mapping import Mapping, random_assignment, random_assignment_batch
from repro.core.objectives import (
    SNR_CAP_DB,
    Objective,
    ObjectiveSpec,
    objective_names,
    spec_for,
)
from repro.core.parallel import merge_chain_results, split_budget, spawn_seeds
from repro.core.pbla import PriorityBasedListAlgorithm, apply_move, swap_moves
from repro.core.pool import get_pool, release_pools, shutdown_pools
from repro.core.problem import MappingProblem
from repro.core.random_search import RandomSearch
from repro.core.registry import (
    PAPER_STRATEGIES,
    available_strategies,
    create_strategy,
    register_strategy,
)
from repro.core.result import OptimizationResult
from repro.core.strategy import BestTracker, MappingStrategy
from repro.core.tabu import TabuSearch

__all__ = [
    "SimulatedAnnealing",
    "DeltaEvaluator",
    "delta_engine",
    "DesignSpaceExplorer",
    "BatchMetrics",
    "EdgeMetrics",
    "MappingEvaluator",
    "MappingMetrics",
    "PendingBatch",
    "GeneticAlgorithm",
    "pmx_crossover",
    "pmx_crossover_batch",
    "Mapping",
    "random_assignment",
    "random_assignment_batch",
    "SNR_CAP_DB",
    "Objective",
    "ObjectiveSpec",
    "objective_names",
    "spec_for",
    "PriorityBasedListAlgorithm",
    "apply_move",
    "swap_moves",
    "merge_chain_results",
    "split_budget",
    "spawn_seeds",
    "get_pool",
    "release_pools",
    "shutdown_pools",
    "MappingProblem",
    "RandomSearch",
    "PAPER_STRATEGIES",
    "available_strategies",
    "create_strategy",
    "register_strategy",
    "OptimizationResult",
    "BestTracker",
    "MappingStrategy",
    "TabuSearch",
]
