"""Shared fixtures: physical parameters and small reference networks.

Networks and coupling models are expensive enough to share; everything here
is read-only from the tests' point of view, so session scope is safe.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.core.evaluator as evaluator_module
from repro.appgraph import load_benchmark, pipeline_cg
from repro.core import MappingEvaluator, MappingProblem, Objective
from repro.core.pool import shutdown_pools
from repro.models.coupling import get_model_cache_dir, set_model_cache_dir
from repro.noc import Floorplan, PhotonicNoC, line, mesh, torus
from repro.photonics import PhysicalParameters


@pytest.fixture(scope="session")
def params():
    return PhysicalParameters()


@pytest.fixture(scope="session")
def line2_network(params):
    """Two tiles in a row: the smallest possible network."""
    return PhotonicNoC(line(2), params=params)


@pytest.fixture(scope="session")
def line3_network(params):
    """Three tiles in a row: smallest network with a transit router."""
    return PhotonicNoC(line(3), params=params)


@pytest.fixture(scope="session")
def mesh3_network(params):
    """3x3 mesh, the PIP case-study fabric."""
    return PhotonicNoC(mesh(3, 3), params=params)


@pytest.fixture(scope="session")
def mesh4_network(params):
    """4x4 mesh, the fabric of most case studies."""
    return PhotonicNoC(mesh(4, 4), params=params)


@pytest.fixture(scope="session")
def torus3_network(params):
    """3x3 folded torus, the smallest torus with wrap-around links."""
    return PhotonicNoC(torus(3, 3), params=params)


@pytest.fixture(scope="session")
def torus4_network(params):
    """4x4 folded torus."""
    return PhotonicNoC(torus(4, 4), params=params)


@pytest.fixture(scope="session")
def pip_cg():
    return load_benchmark("pip")


@pytest.fixture(scope="session")
def vopd_cg():
    return load_benchmark("vopd")


@pytest.fixture(scope="session")
def chain5_cg():
    return pipeline_cg(5)


@pytest.fixture(scope="session")
def pip_evaluator(pip_cg, mesh3_network):
    problem = MappingProblem(pip_cg, mesh3_network, Objective.SNR)
    return MappingEvaluator(problem)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def pin_kernel(monkeypatch):
    """``pin_kernel(kernel)`` makes every evaluator built after it run
    ``kernel`` ("dense" or "sparse"), whatever the density rule of
    :func:`repro.core.evaluator.noise_kernel` would pick.

    Forked pool workers and in-thread TCP workers inherit the pin;
    separate worker processes do not. Pools key on the problem, not on
    the kernel, so every pool is shut down before each pin and at
    teardown: no pool built under one kernel serves another.
    """

    def pin(kernel):
        shutdown_pools()
        monkeypatch.setattr(
            evaluator_module, "noise_kernel", lambda model, n_edges: kernel
        )

    yield pin
    shutdown_pools()


@contextlib.contextmanager
def model_cache_at(directory):
    """Make ``directory`` the process's on-disk model cache for the
    block, restoring the previous setting after it: the context-manager
    form of :func:`model_cache`, for module-scoped fixtures."""
    previous = get_model_cache_dir()
    set_model_cache_dir(str(directory))
    try:
        yield directory
    finally:
        set_model_cache_dir(previous)


@pytest.fixture()
def model_cache(tmp_path):
    """A fresh directory (a :class:`pathlib.Path`), made the process's
    on-disk model cache for the test; the previous setting is restored
    afterwards."""
    with model_cache_at(tmp_path / "model-cache") as directory:
        yield directory
