"""The ``phonocmap`` command line tool.

Subcommands are declared in a registry (:data:`SUBCOMMANDS`) — one
entry per command bundling its name, help line, argument wiring and
implementation — in the shape of subcommand-module CLIs, so adding a
command is one list entry instead of edits in three places. The
commands mirror the workflows of the original toolset:

* ``info``        — list registered routers, strategies and benchmarks;
* ``table1``      — print the physical parameter table (paper Table I);
* ``evaluate``    — evaluate a random or user-provided mapping;
* ``optimize``    — run one optimization strategy on one problem;
* ``table2``      — reproduce the paper's Table II;
* ``fig3``        — reproduce the paper's Fig. 3 distributions;
* ``scalability`` — the network-scalability extension study;
* ``sweep``       — optimize across a device-parameter grid;
* ``export``      — dump a benchmark CG as JSON/DOT/edge list;
* ``serve``       — the long-running mapping service daemon;
* ``worker``      — a remote execution worker dialing a scheduler;
* ``chaos``       — run the deterministic fault-injection scenarios.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro import __version__
from repro.analysis.experiments import (
    build_case_study_network,
    format_fig3,
    reproduce_fig3,
    reproduce_table1,
    reproduce_table2,
)
from repro.analysis.report import ascii_curve, format_db
from repro.analysis.scalability import format_scalability, scalability_study
from repro.appgraph.benchmarks import (
    BENCHMARK_NAMES,
    grid_side_for,
    load_benchmark,
)
from repro.appgraph.io import cg_to_dict, cg_to_dot, cg_to_edge_lines, load_cg_json
from repro.core.dse import DesignSpaceExplorer
from repro.core.mapping import Mapping
from repro.core.objectives import objective_names
from repro.core.problem import MappingProblem
from repro.core.registry import available_strategies
from repro.errors import ConfigurationError, ReproError
from repro.photonics.library import default_library
from repro.photonics.parameters import VariationSpec
from repro.router.registry import available_routers

__all__ = ["main", "build_parser", "SUBCOMMANDS"]


def _add_model_cache_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model-cache", metavar="DIR", default=None,
        help="on-disk coupling-model cache directory: precomputed "
             "matrices are memory-mapped back instead of rebuilt "
             "(keyed by architecture signature and model version; "
             "results are bit-identical either way). Also "
             "settable via PHONOCMAP_MODEL_CACHE",
    )


def _add_executor_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor", metavar="SPEC", default="local",
        help="execution backend for parallel work: 'local' (persistent "
             "process pool, default), 'inline' (serial, zero processes), "
             "or 'tcp://HOST:PORT' to listen for 'phonocmap worker' "
             "processes and dispatch shards to them. Results are "
             "bit-identical for every backend",
    )
    parser.add_argument(
        "--on-worker-loss", choices=("raise", "degrade"), default=None,
        help="what a tcp:// executor does when remote retries run out "
             "or no worker is connected: 'raise' (default — fail fast "
             "with a typed error) or 'degrade' (finish the work on a "
             "local fallback backend, bit-identically). Also settable "
             "via PHONOCMAP_ON_WORKER_LOSS",
    )


def _add_routes_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--routes", type=int, default=1, metavar="K",
        help="per-pair route-menu size for joint mapping x routing "
             "search (default: 1, base routes only — bit-identical to "
             "mapping-only search)",
    )


def _add_architecture_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology", choices=("mesh", "torus"), default="mesh",
        help="tile interconnection (default: mesh)",
    )
    parser.add_argument(
        "--side", type=int, default=None,
        help="grid side; default: smallest square fitting the application",
    )
    parser.add_argument(
        "--router", default="crux", choices=available_routers(),
        help="optical router microarchitecture (default: crux)",
    )
    parser.add_argument(
        "--device", metavar="SPEC", default="date16",
        help="device parameter set: a component-library entry name, or "
             "'name:coeff=value,...' to instantiate (and content-register) "
             "an override point (default: date16, the paper's Table I)",
    )


def _add_objective_arguments(parser: argparse.ArgumentParser) -> None:
    """Objective + process-variation knobs (optimize / evaluate / sweep)."""
    parser.add_argument(
        "--objective", choices=objective_names(), default="snr",
        help="optimization objective (default: snr)",
    )
    parser.add_argument(
        "--variation-samples", type=int, default=None, metavar="N",
        help="process-variation samples for robust objectives (default: 8)",
    )
    parser.add_argument(
        "--variation-sigma", type=float, default=None, metavar="S",
        help="relative per-coefficient variation std-dev (default: 0.02)",
    )
    parser.add_argument(
        "--variation-seed", type=int, default=None, metavar="SEED",
        help="seed of the variation sample stream (default: 0)",
    )
    parser.add_argument(
        "--variation-quantile", type=float, default=None, metavar="Q",
        help="aggregate the per-sample worst-case SNR at quantile Q "
             "instead of the mean",
    )


def _variation_from(args: argparse.Namespace) -> Optional[VariationSpec]:
    """Build the explicit variation plan, or None for the objective default."""
    values = (
        args.variation_samples,
        args.variation_sigma,
        args.variation_seed,
        args.variation_quantile,
    )
    if all(value is None for value in values):
        return None
    return VariationSpec(
        n_samples=8 if args.variation_samples is None else args.variation_samples,
        sigma=0.02 if args.variation_sigma is None else args.variation_sigma,
        seed=0 if args.variation_seed is None else args.variation_seed,
        quantile=args.variation_quantile,
    )


def _add_application_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--app", choices=BENCHMARK_NAMES, help="built-in benchmark application"
    )
    group.add_argument(
        "--cg-json", metavar="FILE", help="communication graph JSON file"
    )


def _load_application(args: argparse.Namespace):
    if args.app:
        return load_benchmark(args.app)
    return load_cg_json(args.cg_json)


def _build_network(args: argparse.Namespace, cg):
    side = args.side if args.side is not None else grid_side_for(cg)
    params = default_library().resolve(getattr(args, "device", "date16"))
    return build_case_study_network(args.topology, side, args.router, params=params)


# ---------------------------------------------------------------------------
# Subcommand argument wiring
# ---------------------------------------------------------------------------


def _configure_info(parser: argparse.ArgumentParser) -> None:
    pass


def _configure_table1(parser: argparse.ArgumentParser) -> None:
    pass


def _configure_evaluate(parser: argparse.ArgumentParser) -> None:
    _add_application_arguments(parser)
    _add_architecture_arguments(parser)
    parser.add_argument(
        "--mapping-json", metavar="FILE",
        help="JSON {task: tile} mapping; random when omitted",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--per-edge", action="store_true", help="print per-edge metrics"
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the full mapping report with noise breakdowns",
    )
    _add_objective_arguments(parser)
    _add_model_cache_argument(parser)


def _configure_optimize(parser: argparse.ArgumentParser) -> None:
    _add_application_arguments(parser)
    _add_architecture_arguments(parser)
    _add_objective_arguments(parser)
    parser.add_argument(
        "--strategy", choices=available_strategies(), default="r-pbla"
    )
    parser.add_argument("--budget", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for parallel DSE (default: 1, sequential)",
    )
    parser.add_argument(
        "--no-delta", action="store_true",
        help="force full (non-incremental) evaluation of every candidate",
    )
    parser.add_argument(
        "--mapping-out", metavar="FILE", help="write the best mapping as JSON"
    )
    _add_routes_argument(parser)
    _add_model_cache_argument(parser)
    _add_executor_argument(parser)


def _configure_table2(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per strategy comparison (default: 1)",
    )
    parser.add_argument(
        "--no-delta", action="store_true",
        help="force full (non-incremental) evaluation of every candidate",
    )
    parser.add_argument(
        "--apps", nargs="+", choices=BENCHMARK_NAMES, default=list(BENCHMARK_NAMES)
    )
    parser.add_argument("--router", default="crux", choices=available_routers())
    parser.add_argument(
        "--with-paper", action="store_true",
        help="print the paper's numbers next to the measured ones",
    )
    _add_routes_argument(parser)
    _add_model_cache_argument(parser)
    _add_executor_argument(parser)


def _configure_fig3(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding the batch evaluations "
             "(default: 1, sequential; results are identical either way)",
    )
    parser.add_argument(
        "--apps", nargs="+", choices=BENCHMARK_NAMES, default=list(BENCHMARK_NAMES)
    )
    parser.add_argument(
        "--curves", action="store_true", help="also print ASCII CDF curves"
    )
    _add_routes_argument(parser)
    _add_model_cache_argument(parser)
    _add_executor_argument(parser)


def _configure_scalability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sides", nargs="+", type=int, default=[3, 4, 5, 6]
    )
    parser.add_argument("--budget", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes shared by the per-size runs and sampling "
             "(default: 1, sequential)",
    )
    _add_model_cache_argument(parser)


def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    _add_application_arguments(parser)
    _add_architecture_arguments(parser)
    _add_objective_arguments(parser)
    parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=V1,V2,...",
        help="one sweep axis: a physical coefficient and its values; "
             "repeat for more axes (the sweep runs their cartesian "
             "product). No axes: the single --device point",
    )
    parser.add_argument(
        "--strategy", choices=available_strategies(), default="r-pbla"
    )
    parser.add_argument("--budget", type=int, default=2_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per point (default: 1, sequential)",
    )
    parser.add_argument(
        "--no-delta", action="store_true",
        help="force full (non-incremental) evaluation of every candidate",
    )
    parser.add_argument(
        "--json-out", metavar="FILE",
        help="also write the sweep points as a JSON document",
    )
    _add_model_cache_argument(parser)


def _parse_sweep_grid(param_args: List[str]):
    """``--param name=v1,v2`` occurrences -> the sweep grid axes."""
    grid = []
    for item in param_args:
        name, sep, values = item.partition("=")
        if not sep or not name.strip() or not values.strip():
            raise ConfigurationError(
                f"--param must look like name=v1,v2,... , got {item!r}"
            )
        try:
            axis = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ConfigurationError(
                f"--param {name.strip()!r} has a non-numeric value in "
                f"{values!r}"
            ) from None
        grid.append((name.strip(), axis))
    return grid


def _configure_export(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", choices=BENCHMARK_NAMES, required=True)
    parser.add_argument(
        "--format", choices=("json", "dot", "edges"), default="json"
    )


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    endpoint = parser.add_mutually_exclusive_group(required=True)
    endpoint.add_argument(
        "--socket", metavar="PATH",
        help="serve newline-delimited JSON requests on this unix socket",
    )
    endpoint.add_argument(
        "--port", type=int, metavar="N",
        help="serve HTTP POST requests on 127.0.0.1:N (0 = ephemeral)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes the coalesced batch flights shard "
             "across (default: 1, inline)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=4,
        help="requests executing concurrently (default: 4)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=16,
        help="admitted requests waiting for a slot before new ones "
             "are rejected with a 429-style error (default: 16)",
    )
    parser.add_argument(
        "--max-budget", type=int, default=1_000_000,
        help="per-request optimize budget cap (default: 1,000,000)",
    )
    parser.add_argument(
        "--max-samples", type=int, default=2_000_000,
        help="per-request distribution sample cap (default: 2,000,000)",
    )
    parser.add_argument(
        "--max-mappings", type=int, default=100_000,
        help="per-request evaluate row cap (default: 100,000)",
    )
    parser.add_argument(
        "--coalesce-window", type=float, default=0.004, metavar="SECONDS",
        help="the longest a batch flight waits for concurrent "
             "same-signature requests to join it; it launches as soon "
             "as no request that could still join is left "
             "(default: 0.004)",
    )
    parser.add_argument(
        "--routes", type=int, default=1, metavar="K",
        help="default per-pair route-menu size applied to requests that "
             "do not set their own 'routes' field (default: 1)",
    )
    _add_model_cache_argument(parser)
    _add_executor_argument(parser)


def _configure_worker(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect", metavar="HOST:PORT", required=True,
        help="address of the scheduler to serve tasks for (the process "
             "that was started with --executor tcp://HOST:PORT)",
    )
    parser.add_argument(
        "--auth-token", metavar="TOKEN", default=None,
        help="shared secret presented to the scheduler in the hello "
             "frame (default: PHONOCMAP_AUTH_TOKEN). Required when the "
             "scheduler side sets a token; prefer the environment "
             "variable — command lines are visible in 'ps'",
    )
    parser.add_argument(
        "--reconnect", type=int, default=None, metavar="N",
        help="redial a lost scheduler up to N consecutive times with "
             "capped exponential backoff before exiting (default: "
             "PHONOCMAP_RECONNECT_ATTEMPTS, else 0 — exit on first "
             "loss and let a supervisor restart)",
    )
    _add_model_cache_argument(parser)


def _configure_chaos(parser: argparse.ArgumentParser) -> None:
    from repro.distributed.chaos import SCENARIOS

    parser.add_argument(
        "--scenario", action="append", choices=sorted(SCENARIOS),
        default=None, metavar="NAME",
        help="scenario to run (repeatable; default: all of them)",
    )
    parser.add_argument(
        "--app", choices=BENCHMARK_NAMES, default="mwd",
        help="benchmark application the scenarios map (default: mwd)",
    )
    parser.add_argument(
        "--budget", type=int, default=600,
        help="optimizer evaluations per strategy (default: 600)",
    )
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="clean TCP workers per scenario (default: 2)",
    )
    parser.add_argument(
        "--json-out", metavar="FILE",
        help="also write the scenario reports as a JSON document",
    )


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_info(_args) -> int:
    print("PhoNoCMap reproduction", __version__)
    print("routers:   ", ", ".join(available_routers()))
    print("strategies:", ", ".join(available_strategies()))
    print("benchmarks:")
    for name in BENCHMARK_NAMES:
        cg = load_benchmark(name)
        side = grid_side_for(cg)
        print(
            f"  {name:16s} {cg.n_tasks:3d} tasks, {cg.n_edges:3d} edges, "
            f"{side}x{side} grid"
        )
    return 0


def _cmd_table1(_args) -> int:
    print(reproduce_table1())
    return 0


def _cmd_evaluate(args) -> int:
    cg = _load_application(args)
    network = _build_network(args, cg)
    problem = MappingProblem(
        cg, network, args.objective, variation=_variation_from(args)
    )
    evaluator = problem.evaluator()
    if args.mapping_json:
        with open(args.mapping_json) as handle:
            placement = json.load(handle)
        mapping = Mapping.from_dict(cg, placement, problem.n_tiles)
    else:
        mapping = Mapping.random(cg, problem.n_tiles, np.random.default_rng(args.seed))
    metrics = evaluator.evaluate(mapping, with_edges=args.per_edge)
    print(f"application: {cg.name} ({cg.n_tasks} tasks, {cg.n_edges} edges)")
    print(f"architecture: {network.signature.split('|params')[0]}")
    print(f"worst-case SNR:            {format_db(metrics.worst_snr_db)} dB")
    print(f"worst-case insertion loss: {metrics.worst_insertion_loss_db:7.2f} dB")
    if metrics.laser_power_db is not None:
        print(f"laser-power budget:        {metrics.laser_power_db:7.2f} dB")
    if metrics.robust_snr_db is not None:
        print(
            f"variation-robust SNR:      {format_db(metrics.robust_snr_db)} dB"
            f"  ({problem.variation_fingerprint})"
        )
    print(f"objective ({problem.objective.value}): {metrics.score:.4f}")
    if args.report:
        from repro.analysis.inspect import mapping_report

        print()
        print(mapping_report(evaluator, mapping))
    if args.per_edge and metrics.edges is not None:
        for index, edge in enumerate(cg.edges):
            print(
                f"  {cg.tasks[edge.src]:>14s} -> {cg.tasks[edge.dst]:<14s} "
                f"loss {metrics.edges.insertion_loss_db[index]:6.2f} dB   "
                f"SNR {format_db(metrics.edges.snr_db[index])} dB"
            )
    return 0


def _cmd_optimize(args) -> int:
    cg = _load_application(args)
    network = _build_network(args, cg)
    problem = MappingProblem(
        cg, network, args.objective, variation=_variation_from(args),
        routes=args.routes,
    )
    explorer = DesignSpaceExplorer(
        problem, use_delta=not args.no_delta,
        n_workers=args.workers, model_cache_dir=args.model_cache,
        executor=args.executor,
    )
    result = explorer.run(args.strategy, budget=args.budget, seed=args.seed)
    objective_line = f"objective: {problem.objective.value}"
    if problem.variation is not None:
        objective_line += f"  [{problem.variation_fingerprint}]"
    print(objective_line)
    print(result.summary())
    print("mapping (task -> tile):")
    for task, tile in result.best_mapping.as_dict().items():
        print(f"  {task:>16s} -> {tile}")
    if result.route_genes is not None:
        chosen = ", ".join(
            f"{cg.tasks[edge.src]}->{cg.tasks[edge.dst]}:{int(gene)}"
            for edge, gene in zip(cg.edges, result.route_genes)
            if int(gene) != 0
        )
        print(f"route genes (non-base): {chosen if chosen else '(none)'}")
    if args.mapping_out:
        with open(args.mapping_out, "w") as handle:
            json.dump(result.best_mapping.as_dict(), handle, indent=2)
        print(f"mapping written to {args.mapping_out}")
    return 0


def _cmd_table2(args) -> int:
    result = reproduce_table2(
        applications=args.apps,
        budget=args.budget,
        seed=args.seed,
        router=args.router,
        use_delta=not args.no_delta,
        n_workers=args.workers,
        executor=args.executor,
        routes=args.routes,
    )
    print(result.format(with_paper=args.with_paper))
    return 0


def _cmd_fig3(args) -> int:
    results = reproduce_fig3(
        applications=args.apps, n_samples=args.samples, seed=args.seed,
        n_workers=args.workers, executor=args.executor, routes=args.routes,
    )
    print(format_fig3(results))
    if args.curves:
        for name, result in results.items():
            for metric in ("snr", "loss"):
                x, p = result.cdf(metric)
                print()
                print(f"{name} — cumulative probability vs worst-case {metric}")
                print(ascii_curve(x, p, x_label=f"{metric} (dB)", y_label="P"))
    return 0


def _cmd_scalability(args) -> int:
    rows = scalability_study(
        sides=tuple(args.sides), budget=args.budget, seed=args.seed,
        n_workers=args.workers, model_cache_dir=args.model_cache,
    )
    print(format_scalability(rows))
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sweep import sweep_device_points

    cg = _load_application(args)
    result = sweep_device_points(
        cg,
        _parse_sweep_grid(args.param),
        topology=args.topology,
        side=args.side,
        router=args.router,
        base=args.device,
        objective=args.objective,
        variation=_variation_from(args),
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        use_delta=not args.no_delta,
        n_workers=args.workers,
        model_cache_dir=args.model_cache,
    )
    print(result.format())
    best = result.best()
    print(f"best point: {best.key}  score {best.score:.4f}")
    if args.json_out:
        document = {
            "application": result.application,
            "objective": result.objective.value,
            "strategy": result.strategy,
            "budget": result.budget,
            "points": [
                {
                    "key": point.key,
                    "overrides": point.overrides,
                    "content_hash": point.content_hash,
                    "score": point.score,
                    "evaluations": int(point.result.evaluations),
                }
                for point in result.points
            ],
        }
        with open(args.json_out, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"sweep written to {args.json_out}")
    return 0


def _cmd_worker(args) -> int:
    from repro.distributed.worker import run_worker

    return run_worker(
        args.connect,
        model_cache_dir=args.model_cache,
        auth_token=args.auth_token,
        reconnect_attempts=args.reconnect,
    )


def _cmd_chaos(args) -> int:
    from repro.distributed.chaos import SCENARIOS, run_scenario

    names = args.scenario or sorted(SCENARIOS)
    reports = []
    failures = 0
    for name in names:
        report = run_scenario(
            name,
            app=args.app,
            budget=args.budget,
            seed=args.seed,
            n_workers=args.workers,
        )
        reports.append(report)
        status = "ok" if report["ok"] else "FAIL"
        print(
            f"{status:4s} {name:14s} outcome={report['outcome']:24s} "
            f"wall={report['faulted_wall_s']:6.2f}s "
            f"(oracle {report['oracle_wall_s']:.2f}s)  "
            f"lost={report['hub']['workers_lost']} "
            f"retried={report['hub']['tasks_retried']} "
            f"timed_out={report['hub']['tasks_timed_out']}"
        )
        if not report["ok"]:
            failures += 1
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(reports, handle, indent=2)
        print(f"reports written to {args.json_out}")
    print(f"{len(reports) - failures}/{len(reports)} scenarios held the contract")
    return 1 if failures else 0


def _cmd_export(args) -> int:
    cg = load_benchmark(args.app)
    if args.format == "json":
        print(json.dumps(cg_to_dict(cg), indent=2))
    elif args.format == "dot":
        print(cg_to_dot(cg), end="")
    else:
        print(cg_to_edge_lines(cg), end="")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service import ServiceCore, ServiceLimits, ServiceServer

    core = ServiceCore(
        n_workers=args.workers,
        model_cache_dir=args.model_cache,
        limits=ServiceLimits(
            max_inflight=args.max_inflight,
            queue_size=args.queue_size,
            max_budget=args.max_budget,
            max_samples=args.max_samples,
            max_mappings=args.max_mappings,
        ),
        coalesce_window_s=args.coalesce_window,
        executor=args.executor,
        default_routes=args.routes,
    )
    server = ServiceServer(core, socket_path=args.socket, port=args.port)
    stop = threading.Event()
    previous_sigterm = None
    try:
        # SIGTERM rides the same graceful path as Ctrl-C: stop accepting,
        # drain in-flight requests, shutdown_pools(), unlink the socket.
        previous_sigterm = signal.signal(
            signal.SIGTERM, lambda signum, frame: stop.set()
        )
    except ValueError:
        pass  # not the main thread (embedded/test use): signals stay as-is
    server.start()
    print(f"phonocmap serve: listening on {server.address}", flush=True)
    try:
        while not stop.wait(0.2):
            pass
        return 0
    finally:
        server.stop()
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        print("phonocmap serve: drained and shut down", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand registry (the shape of subcommand-module CLIs: each entry
# owns its name, help line, parser wiring and implementation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    """One CLI subcommand: its name, help, argument wiring and body."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


SUBCOMMANDS = (
    Subcommand("info", "list routers, strategies, benchmarks",
               _configure_info, _cmd_info),
    Subcommand("table1", "print Table I parameters",
               _configure_table1, _cmd_table1),
    Subcommand("evaluate", "evaluate one mapping (random unless --mapping-json)",
               _configure_evaluate, _cmd_evaluate),
    Subcommand("optimize", "run one strategy",
               _configure_optimize, _cmd_optimize),
    Subcommand("table2", "reproduce Table II",
               _configure_table2, _cmd_table2),
    Subcommand("fig3", "reproduce Fig. 3",
               _configure_fig3, _cmd_fig3),
    Subcommand("scalability", "network scalability extension study",
               _configure_scalability, _cmd_scalability),
    Subcommand("sweep", "optimize across a device-parameter grid",
               _configure_sweep, _cmd_sweep),
    Subcommand("export", "dump a benchmark CG",
               _configure_export, _cmd_export),
    Subcommand("serve", "run the long-lived mapping-service daemon",
               _configure_serve, _cmd_serve),
    Subcommand("worker", "serve remote execution tasks for a scheduler",
               _configure_worker, _cmd_worker),
    Subcommand("chaos", "run the deterministic fault-injection scenarios",
               _configure_chaos, _cmd_chaos),
)


def build_parser() -> argparse.ArgumentParser:
    """Assemble the ``phonocmap`` parser from the subcommand registry."""
    parser = argparse.ArgumentParser(
        prog="phonocmap",
        description=(
            "PhoNoCMap reproduction: application mapping design-space "
            "exploration for photonic networks-on-chip (DATE 2016)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in SUBCOMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        command.configure(subparser)
        subparser.set_defaults(run=command.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, dispatch, and translate failures to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.models.coupling import get_model_cache_dir, set_model_cache_dir

    # Process-wide default for the duration of the command: experiment
    # harnesses that build models internally (table2, fig3) resolve
    # against the same cache as the explicitly threaded paths (optimize,
    # scalability). Restored afterwards so programmatic callers invoking
    # main() repeatedly don't leak the directory across invocations.
    previous_cache_dir = get_model_cache_dir()
    if getattr(args, "model_cache", None):
        set_model_cache_dir(args.model_cache)
    from repro.core.executor import set_worker_loss_policy

    # Same save/restore contract as the cache dir: --on-worker-loss is a
    # process-wide policy for this one command.
    previous_policy = None
    policy_set = False
    if getattr(args, "on_worker_loss", None):
        previous_policy = set_worker_loss_policy(args.on_worker_loss)
        policy_set = True
    try:
        return args.run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `phonocmap table2 | head`: the pipe consumer is gone, which is
        # the reader's normal way of saying "enough". Point stdout at
        # /dev/null so the interpreter's exit-time flush of the dead
        # pipe cannot raise a second traceback, then exit cleanly.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout has no real fd (captured/redirected streams)
        return 0
    except KeyboardInterrupt:
        print(file=sys.stderr)  # move past a partially printed line
        return 130  # 128 + SIGINT, the shell convention
    finally:
        set_model_cache_dir(previous_cache_dir)
        if policy_set:
            set_worker_loss_policy(previous_policy)


if __name__ == "__main__":
    sys.exit(main())
