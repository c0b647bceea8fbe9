"""PhoNoCMap benchmark: Table II search, Fig. 3 sweep and a loaded daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {search,sweep,serve} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures them,
then repeats the run with span recording and prints the per-layer metrics
plus the tracing overhead. Human-readable lines (run stamp, every metric
with its unit and sample count) come first; the last line is the JSON
result. A failed correctness gate exits 1; a checkout without the
program's sources exits 2 without a result. See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import calc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = ".perfbench_run"

#: Program processes (serve: daemons) per run. Each is timed from its
#: launch for ``setup_s`` and does an equal share of the timed work;
#: metrics are medians across them, so one slow interpreter or one slow
#: stretch of the host is voted out.
PROCESSES = 3

#: Percentiles of each workload's operation latency, each chosen to fall
#: inside a cluster of similar operations rather than between two, where
#: one slow operation moves it by the width of the gap. Search's 96 cells
#: end in a cluster of 24 (the two largest applications' 8 cells in each
#: of 3 processes): p75 is that cluster's edge, so its tail is p85, with
#: 14 samples beyond it. Sweep's 48 operations form clusters of 6 runs of
#: the same application: p50 and p75 fall exactly between two clusters,
#: where one slow small-app run moves them by 30-40%, so its tail is p70,
#: inside a cluster with 14 samples beyond it. Its middle is the mean
#: application latency of its median pass instead of a percentile: any
#: middle percentile lands on the small applications, whose pool start-up
#: amplified hypervisor steal into a 0.39 quartile spread across ten
#: seeds. Serve's tail is p95, inside its GA requests with 54 of its 1080
#: requests beyond; p99 had the fewest samples beyond and the widest
#: quartile spread of all (0.30).
MID = {"search": 50, "serve": 50}
TAIL = {"search": 85, "sweep": 70, "serve": 95}
OPERATION = {
    "search": "Table II cell (compare of 5 strategies)",
    "sweep": "Fig. 3 application (100k samples)",
    "serve": "request round trip",
}

#: serve: architectures with grids of 4x4 or smaller, both topologies.
SERVE_MAX_SIDE = 4
SERVE_WARMUP_REQUESTS = 64
SERVE_CONNECTIONS = 2
#: Responses per daemon re-run offline by the gate.
SERVE_VERIFY = 4
#: serve traffic. The weights are benchmarks/bench_service.py's round --
#: one distribution, one optimize and one evaluate request -- repeated
#: once per strategy x objective, so the kinds are equal thirds and every
#: strategy runs. The optimize budget is bench_service.py's default. No
#: production traffic was measured: the proportions are a choice.
SERVE_STRATEGIES = ("rs", "ga", "r-pbla", "sa", "tabu")
SERVE_OBJECTIVES = ("snr", "loss")
SERVE_BUDGET = 512
SERVE_SAMPLES = 2048
SERVE_ROWS = 256


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


#: The program's own environment switches (model cache, chaos plan,
#: worker-loss policy, ...) would change what runs, e.g. turn set-up's
#: cold model builds into disk loads: program processes start without them.
PROGRAM_ENV_PREFIX = "PHONOCMAP_"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(PROGRAM_ENV_PREFIX)}
    # One BLAS thread per program process unless the caller chose: the
    # pool workers and handler threads already fill the two CPUs, and
    # BLAS threads on top of them widened the run-to-run spread.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# -- run stamp ------------------------------------------------------------------


def source_digest() -> str:
    """Content hash of ``src/``: identifies the code where git cannot."""
    digest = hashlib.sha1()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_ticks() -> list:
    """The aggregate ``cpu`` line of ``/proc/stat``: user ... steal."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def steal_share(before: list, after: list) -> float:
    """Share of CPU time the hypervisor took from this VM in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def stamp(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha1": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "thread_env": {
            name: os.environ.get(name)
            for name in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            )
        },
        "program_env_dropped": sorted(
            name for name in os.environ if name.startswith(PROGRAM_ENV_PREFIX)
        ),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- search and sweep: program processes ----------------------------------------


def launch_work(workload, seed, seconds, gate=False, spans_path=None):
    """Run ``work.py`` once; return ``(setup_s, result)``."""
    command = [
        sys.executable, os.path.join(HERE, "work.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if gate:
        command.append("--gate")
    if spans_path:
        command += ["--spans", spans_path]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        setup_s = None
        result = None
        for line in process.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or setup_s is None or result is None:
        raise RuntimeError(f"{workload} program process failed (exit {code})")
    return setup_s, result


def measure_work(workload, seed, seconds, spans_paths=None):
    """Run the workload in fresh interpreters; raw numbers for the metrics.

    The costly gate checks run in the first process only; every process
    must return the same result digest.
    """
    runs = [
        launch_work(
            workload, seed, seconds / PROCESSES, gate=index == 0,
            spans_path=spans_paths[index] if spans_paths else None,
        )
        for index in range(PROCESSES)
    ]
    results = [result for _setup, result in runs]
    latencies = [ms for result in results for ms in result["op_latencies_ms"]]
    passes = [p for result in results for p in result["passes"]]
    ops = passes[0]["ops"]
    round_s = calc.robust_round_s(latencies, ops)
    errors = [error for result in results for error in result["gate_errors"]]
    if len({result["digest"] for result in results}) != 1:
        errors.append("program processes returned different results for one seed")
    return {
        "setups": [setup_s for setup_s, _result in runs],
        "evals_rate": (calc.median([p["evals"] for p in passes]) / round_s, len(latencies)),
        "ops_rate": (ops / round_s, len(latencies)),
        # Sweep's middle latency: the mean operation of the median pass.
        "mean_op_ms": (calc.median([p["wall_s"] for p in passes]) / ops * 1000.0, len(passes)),
        "latencies_ms": [ms for ms in latencies if ms is not None],
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "gate_errors": errors,
        "quality": results[0]["quality"],
        "peak_rss_mb": calc.median([result["peak_rss_mb"] for result in results]),
        "warmup": results[0]["warmup"],
        "timed_ns": results[0]["timed_ns"],
        "passes": len(passes),
        "first": results[0],
    }


# -- serve: the daemon in its own process, driven over two connections --------


def serve_architectures():
    from repro.appgraph.benchmarks import BENCHMARK_NAMES, grid_side_for, load_benchmark

    return [
        (name, topology)
        for name in BENCHMARK_NAMES
        if grid_side_for(load_benchmark(name)) <= SERVE_MAX_SIDE
        for topology in ("mesh", "torus")
    ]


def serve_types() -> list:
    """The request types every architecture gets once in each daemon's list.

    One bench_service.py round (distribution, optimize, evaluate) per
    strategy x objective, so each daemon's share has the same composition
    for every seed; only order and request seeds change with it.
    """
    return [
        request
        for strategy in SERVE_STRATEGIES
        for objective in SERVE_OBJECTIVES
        for request in (
            {"kind": "distribution", "samples": SERVE_SAMPLES},
            {"kind": "optimize", "strategy": strategy, "objective": objective,
             "budget": SERVE_BUDGET},
            {"kind": "evaluate", "n_random": SERVE_ROWS, "objective": objective},
        )
    ]


def serve_requests(seed: int, architectures) -> list:
    """One request list per daemon, in shuffled same-architecture pairs."""
    rng = random.Random(seed)
    lists = []
    for _ in range(PROCESSES):
        pairs = []
        for app, topology in architectures:
            block = [
                {**kind, "app": app, "topology": topology, "seed": rng.randrange(2**31)}
                for kind in serve_types()
            ]
            rng.shuffle(block)
            pairs += [block[i : i + 2] for i in range(0, len(block), 2)]
        rng.shuffle(pairs)
        lists.append([request for pair in pairs for request in pair])
    return lists


def evaluations(body: dict) -> int:
    result = body["result"]
    if body["kind"] == "optimize":
        return int(result["evaluations"])
    if body["kind"] == "distribution":
        return int(result["n_samples"])
    return int(result["n_mappings"])


def split_cpus():
    """``(daemon CPUs, load-generator CPUs)``, or ``(None, None)`` on one CPU.

    The daemon gets the last CPU to itself and the load generator the
    rest. Unpinned, both handler threads and both client threads migrate
    over every CPU, so a hypervisor pause of either CPU stalls the GIL
    hand-off inside the daemon; that turned a 0-13% steal share into a
    quartile spread of 0.23 in requests per second across ten seeds.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[-1:], cpus[:-1]


class Daemon:
    """One ``phonocmap serve`` process started by ``serve_launcher.py``."""

    def __init__(self, architectures, cpus=None, spans_path=None) -> None:
        from repro.service.client import ServiceClient

        os.makedirs(RUN_DIR, exist_ok=True)
        self.socket = os.path.join(RUN_DIR, f"serve-{os.getpid()}-{time.monotonic_ns()}.sock")
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py"), self.socket]
        if cpus:
            command += ["--cpus", ",".join(map(str, cpus))]
        if spans_path:
            command += ["--spans", spans_path]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL
        )
        try:
            self._wait_listening()
            with ServiceClient(socket_path=self.socket) as client:
                for app, topology in architectures:
                    body = client.request(
                        {"kind": "evaluate", "app": app, "topology": topology,
                         "n_random": 1, "seed": 0}
                    )
                    if not body.get("ok"):
                        raise RuntimeError(f"daemon refused its warm request: {body}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_listening(self, timeout: float = 120.0) -> None:
        import socket

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early ({self.process.returncode})")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket)
                return
            except OSError:
                time.sleep(0.005)
            finally:
                probe.close()
        raise RuntimeError("daemon did not start listening")

    def peak_rss_mb(self) -> float:
        import spans

        return spans.vmhwm_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if os.path.exists(self.socket):
            os.unlink(self.socket)


def drive(socket_path, requests, keep=()):
    """One lap of ``requests``, closed loop over two connections.

    Each connection sends the next unsent request as soon as its previous
    reply arrives. Returns ``(records, wall_s, kept)``: a record is
    ``(index, latency_s, summary or None)``, where a failed request has no
    summary, and ``kept`` holds the full responses of the ``keep`` indices.
    """
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    pending = iter(range(len(requests)))
    records, kept = [], {}

    def connection():
        with ServiceClient(socket_path=socket_path) as client:
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                began = time.perf_counter()
                try:
                    body = client.request(requests[index])
                except Exception as error:  # noqa: BLE001 — a failed request
                    body = {"ok": False, "error": repr(error)}
                latency = time.perf_counter() - began
                if index in keep:
                    kept[index] = body
                summary = None
                if body.get("ok"):
                    summary = {"kind": body["kind"], "evals": evaluations(body)}
                    if body["kind"] == "optimize":
                        result = body["result"]
                        summary.update(
                            objective=body["objective"],
                            snr=result["worst_snr_db"],
                            loss=result["worst_insertion_loss_db"],
                        )
                records.append((index, latency, summary))

    start = time.perf_counter()
    threads = [threading.Thread(target=connection) for _ in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start, kept


def verify_offline(requests, kept) -> list:
    """Re-run the kept requests offline; responses must be bit-identical."""
    import numpy as np

    from repro.analysis.distribution import random_mapping_distribution
    from repro.analysis.experiments import build_case_study_network
    from repro.appgraph.benchmarks import grid_side_for, load_benchmark
    from repro.core.dse import DesignSpaceExplorer
    from repro.core.evaluator import MappingEvaluator
    from repro.core.objectives import Objective
    from repro.core.problem import MappingProblem

    errors = []
    for index, body in sorted(kept.items()):
        request = requests[index]
        if not body.get("ok"):
            errors.append(f"request {index} failed: {body.get('error')}")
            continue
        cg = load_benchmark(request["app"])
        network = build_case_study_network(request["topology"], grid_side_for(cg))
        objective = Objective.parse(request.get("objective", "snr"))
        problem = MappingProblem(cg, network, objective)
        got = body["result"]
        if request["kind"] == "optimize":
            result = DesignSpaceExplorer(problem).run(
                request["strategy"], budget=request["budget"], seed=request["seed"]
            )
            want = {
                "best_score": float(result.best_score),
                "assignment": [int(t) for t in result.best_mapping.assignment],
                "evaluations": int(result.evaluations),
                "history": [[int(n), float(s)] for n, s in result.history],
            }
        elif request["kind"] == "distribution":
            result = random_mapping_distribution(
                cg, network, n_samples=request["samples"], seed=request["seed"]
            )
            want = {
                "worst_snr_db": result.worst_snr_db.tolist(),
                "worst_loss_db": result.worst_loss_db.tolist(),
            }
        else:
            evaluator = MappingEvaluator(problem)
            rows = evaluator.random_vector_batch(
                request["n_random"], np.random.default_rng(request["seed"])
            )
            metrics = evaluator.evaluate_batch(rows)
            want = {
                "worst_snr_db": metrics.worst_snr_db.tolist(),
                "worst_insertion_loss_db": metrics.worst_insertion_loss_db.tolist(),
                "score": metrics.score.tolist(),
            }
        for key, value in want.items():
            if got.get(key) != value:
                errors.append(f"request {index} ({request['kind']}): {key} differs offline")
    return errors


def serve_one(daemon, requests, warmup, seconds, keep) -> dict:
    """Warm one daemon up, then drive whole laps of its request list."""
    from repro.service.client import ServiceClient

    def coalescing():
        with ServiceClient(socket_path=daemon.socket) as client:
            return client.request({"kind": "stats"})["result"]["coalescing"]["totals"]

    warm_start = time.perf_counter_ns()
    drive(daemon.socket, warmup)
    warmup_s = (time.perf_counter_ns() - warm_start) / 1e9
    before = coalescing()
    timed_start = time.perf_counter_ns()
    laps, kept = [], {}
    while calc.more_rounds(
        [wall for _lap, wall in laps], (time.perf_counter_ns() - timed_start) / 1e9,
        seconds, 1,
    ):
        lap, wall_s, lap_kept = drive(daemon.socket, requests, keep if not laps else ())
        kept.update(lap_kept)
        laps.append((lap, wall_s))
    timed_end = time.perf_counter_ns()
    after = coalescing()
    records = [record for lap, _wall in laps for record in lap]
    ok = [r for r in records if r[2] is not None]
    wall_s = sum(wall for _lap, wall in laps)
    return {
        "records": records,
        "first_lap": laps[0][0],
        "evals_rate": sum(r[2]["evals"] for r in ok) / wall_s,
        "ops_rate": len(ok) / wall_s,
        "kept": kept,
        "peak_rss_mb": daemon.peak_rss_mb(),
        "warmup_s": warmup_s,
        "warm_start_ns": warm_start,
        "timed_ns": [timed_start, timed_end],
        "coalesce": {
            key: after[key] - before[key]
            for key in ("flights", "batches", "coalesced_batches")
        },
    }


def measure_serve(seed, seconds, spans_paths=None):
    architectures = serve_architectures()
    lists = serve_requests(seed, architectures)
    warmup = serve_requests(seed + 1, architectures)[0][:SERVE_WARMUP_REQUESTS]
    rng = random.Random(seed)
    keeps = [set(rng.sample(range(len(requests)), SERVE_VERIFY)) for requests in lists]
    daemon_cpus, load_cpus = split_cpus()
    own_cpus = os.sched_getaffinity(0)
    setups, daemons = [], []
    try:
        if load_cpus:
            # Threads started from here on (the connections) inherit it.
            os.sched_setaffinity(0, load_cpus)
        for index, requests in enumerate(lists):
            daemon = Daemon(
                architectures, daemon_cpus, spans_paths[index] if spans_paths else None
            )
            setups.append(daemon.setup_s)
            try:
                daemons.append(
                    serve_one(daemon, requests, warmup, seconds / PROCESSES, keeps[index])
                )
            finally:
                daemon.stop()
    finally:
        os.sched_setaffinity(0, own_cpus)
    records = [record for one in daemons for record in one["records"]]
    failed = sum(1 for r in records if r[2] is None)
    # Index order, not completion order: the quality means must repeat
    # exactly for a seed whichever connection finished first.
    optimized = [
        r[2]
        for one in daemons
        for r in sorted(one["first_lap"], key=lambda r: r[0])
        if r[2] is not None and r[2]["kind"] == "optimize"
    ]
    snr = [s["snr"] for s in optimized if s["objective"] == "snr"]
    loss = [-s["loss"] for s in optimized if s["objective"] == "loss"]
    gate = [f"{failed} of {len(records)} requests failed"] if failed else []
    for requests, one in zip(lists, daemons):
        gate += verify_offline(requests, one["kept"])
    first = daemons[0]
    return {
        "setups": setups,
        "evals_rate": (calc.median([one["evals_rate"] for one in daemons]), len(records)),
        "ops_rate": (calc.median([one["ops_rate"] for one in daemons]), len(records)),
        "latencies_ms": [r[1] * 1000.0 for r in records if r[2] is not None],
        "attempted": len(records),
        "failed": failed,
        "gate_errors": gate,
        "quality": {
            "best_snr_db_mean": sum(snr) / len(snr),
            "best_loss_db_mean": sum(loss) / len(loss),
        },
        "peak_rss_mb": calc.median([one["peak_rss_mb"] for one in daemons]),
        "cpus": {"daemon": daemon_cpus, "load": load_cpus},
        "warmup": {"what": f"{len(warmup)} requests per daemon", "seconds": first["warmup_s"]},
        "timed_ns": first["timed_ns"],
        "passes": len(daemons),
        "first": first,
    }


# -- metrics ---------------------------------------------------------------------


def end_to_end(workload, raw) -> dict:
    """Every end-to-end metric, with the number of samples behind it."""
    latencies = raw["latencies_ms"]
    attempted = raw["attempted"]
    return {
        "setup_s": (calc.median(raw["setups"]), len(raw["setups"])),
        "evals_per_s": raw["evals_rate"],
        "ops_per_s": raw["ops_rate"],
        "latency_mid_ms": (
            raw["mean_op_ms"] if workload == "sweep"
            else (calc.percentile(latencies, MID[workload], raw["failed"]), attempted)
        ),
        "latency_tail_ms": (calc.percentile(latencies, TAIL[workload], raw["failed"]), attempted),
        "peak_rss_mb": (raw["peak_rss_mb"], PROCESSES),
        "ok_frac": ((attempted - raw["failed"]) / attempted, attempted),
        "best_snr_db_mean": (raw["quality"]["best_snr_db_mean"], 1),
        "best_loss_db_mean": (raw["quality"]["best_loss_db_mean"], 1),
    }


def measure(workload, seed, seconds, spans_paths=None):
    if workload == "serve":
        return measure_serve(seed, seconds, spans_paths)
    return measure_work(workload, seed, seconds, spans_paths)


def per_layer(workload, seed, seconds, untraced) -> dict:
    """Repeat the run with span recording; per-layer metrics + overhead.

    Every process of the traced run records spans, so its end-to-end
    metrics compare with the untraced run's; the per-layer metrics come
    from the first process (one share of the timed work plus its set-up).
    """
    import layers

    os.makedirs(RUN_DIR, exist_ok=True)
    paths = [
        os.path.join(RUN_DIR, f"spans-{os.getpid()}-{index}.json")
        for index in range(PROCESSES)
    ]
    try:
        raw = measure(workload, seed, seconds, paths)
        with open(paths[0]) as handle:
            doc = json.load(handle)
    finally:
        for path in paths:
            if os.path.exists(path):
                os.unlink(path)
    spans = layers.as_dicts(doc["spans"])
    first = raw["first"]
    if workload == "serve":
        warm, (lo, hi) = first["warm_start_ns"], first["timed_ns"]
        for span in spans:
            start = span["start"]
            span["phase"] = (
                "setup" if start < warm else "warmup" if start < lo
                else "timed" if start <= hi else "gate"
            )
        imports = (doc["import_ms"], doc["import_modules"])
        roundtrips = [r[1] * 1000.0 for r in first["records"] if r[2] is not None]
    else:
        imports = (first["import_ms"], first["import_modules"])
        roundtrips = None
    metrics = layers.layer_metrics(
        spans,
        tuple(first["timed_ns"]),
        *imports,
        pool_retries=first.get("pool_retries", 0),
        coalesce=first.get("coalesce"),
        roundtrips_ms=roundtrips,
    )
    traced = end_to_end(workload, raw)
    for name, (value, _count) in untraced.items():
        metrics[f"overhead.{name}_pct"] = calc.overhead_pct(traced[name][0], value)
    return metrics, raw


def report(title, metrics, units, counts=None) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        samples = f"  (n={counts[name]})" if counts else ""
        print(f"  {name:36s} {value:>16.6g} {units[name]}{samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TAIL), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    e2e_spec, layer_spec = declared()
    run_stamp = stamp(args)
    ticks = cpu_ticks()
    raw = measure(args.workload, args.seed, args.seconds)
    e2e = end_to_end(args.workload, raw)
    errors = list(raw["gate_errors"])
    run_stamp.update(
        timed_s=(raw["timed_ns"][1] - raw["timed_ns"][0]) / 1e9,
        passes=raw["passes"],
        warmup_discarded=raw["warmup"],
        operation=OPERATION[args.workload],
        mid_percentile=MID.get(args.workload, "mean"),
        tail_percentile=TAIL[args.workload],
    )
    if "cpus" in raw:
        run_stamp["cpus"] = raw["cpus"]
    values = {name: value for name, (value, _n) in e2e.items()}
    units = {m["name"]: m["unit"] for m in e2e_spec + layer_spec}
    report("end-to-end", values, units, {name: n for name, (_v, n) in e2e.items()})
    attempted, failed = raw["attempted"], raw["failed"]
    if args.trace:
        metrics, traced = per_layer(args.workload, args.seed, args.seconds, e2e)
        errors += traced["gate_errors"]
        report("per-layer (traced run)", metrics, units)
        chosen = {m["name"]: metrics[m["name"]] for m in layer_spec}
    else:
        chosen = {m["name"]: values[m["name"]] for m in e2e_spec}
    run_stamp["loadavg_after"] = list(os.getloadavg())
    run_stamp["steal_share"] = steal_share(ticks, cpu_ticks())
    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    for error in errors:
        print(f"GATE FAILED: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()
                },
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
