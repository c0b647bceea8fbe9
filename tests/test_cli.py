"""CLI smoke tests driving the real entry point."""

import json

import numpy as np
import pytest

import repro.cli as cli
from repro.cli import main


class TestInfoCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "crux" in output
        assert "r-pbla" in output
        assert "vopd" in output

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Kp,off" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestStartup:
    def test_import_leaves_networkx_unloaded(self):
        # networkx serves only the .graph() exporters; every CLI call,
        # worker start and subprocess would otherwise pay for importing it.
        import os
        import subprocess
        import sys

        src = os.path.abspath(
            os.path.join(os.path.dirname(cli.__file__), os.pardir)
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; print('networkx' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"


class TestEvaluate:
    def test_random_mapping(self, capsys):
        assert main(["evaluate", "--app", "pip", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "worst-case SNR" in output
        assert "insertion loss" in output

    def test_per_edge(self, capsys):
        assert main(["evaluate", "--app", "pip", "--seed", "1", "--per-edge"]) == 0
        assert "->" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["evaluate", "--app", "pip", "--seed", "1", "--report"]) == 0
        output = capsys.readouterr().out
        assert "mapping report: pip" in output
        assert "noise into" in output

    def test_explicit_mapping(self, tmp_path, capsys):
        placement = {
            task: tile
            for tile, task in enumerate(
                ["inp_mem1", "hs", "vs", "jug1", "op_disp",
                 "inp_mem2", "jug2", "mem2"]
            )
        }
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(placement))
        assert main(
            ["evaluate", "--app", "pip", "--mapping-json", str(path)]
        ) == 0

    def test_cg_json_input(self, tmp_path, capsys):
        from repro.appgraph import pipeline_cg, save_cg_json

        path = tmp_path / "chain.json"
        save_cg_json(pipeline_cg(4), path)
        assert main(["evaluate", "--cg-json", str(path), "--seed", "2"]) == 0

    def test_dtype_and_backend_flags_reach_the_evaluator(
        self, capsys, monkeypatch
    ):
        # `evaluate` silently ignored --float32/--backend before it was
        # routed through the shared evaluator argument group.
        from repro.core.problem import MappingProblem

        seen = {}
        original = MappingProblem.evaluator

        def spy(self, **kwargs):
            seen.update(kwargs)
            return original(self, **kwargs)

        monkeypatch.setattr(MappingProblem, "evaluator", spy)
        assert main(
            ["evaluate", "--app", "pip", "--seed", "1",
             "--float32", "--backend", "sparse"]
        ) == 0
        assert seen["dtype"] is np.float32
        assert seen["backend"] == "sparse"
        assert "worst-case SNR" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_and_export_mapping(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        code = main(
            [
                "optimize", "--app", "pip", "--strategy", "rs",
                "--budget", "200", "--seed", "1", "--mapping-out", str(out),
            ]
        )
        assert code == 0
        placement = json.loads(out.read_text())
        assert len(placement) == 8

    def test_optimize_loss_objective(self, capsys):
        code = main(
            [
                "optimize", "--app", "pip", "--objective", "loss",
                "--strategy", "r-pbla", "--budget", "300", "--seed", "2",
            ]
        )
        assert code == 0
        assert "worst loss" in capsys.readouterr().out

    def test_optimize_no_delta_escape_hatch(self, capsys):
        code = main(
            [
                "optimize", "--app", "pip", "--strategy", "tabu",
                "--budget", "150", "--seed", "3", "--no-delta",
            ]
        )
        assert code == 0
        assert "evaluations" in capsys.readouterr().out

    def test_optimize_parallel_workers(self, capsys):
        code = main(
            [
                "optimize", "--app", "pip", "--strategy", "r-pbla",
                "--budget", "120", "--seed", "4", "--workers", "2",
            ]
        )
        assert code == 0
        assert "evaluations" in capsys.readouterr().out


class TestExperiments:
    def test_fig3_small(self, capsys):
        assert main(["fig3", "--apps", "pip", "--samples", "200"]) == 0
        assert "pip" in capsys.readouterr().out

    def test_fig3_curves(self, capsys):
        assert main(
            ["fig3", "--apps", "pip", "--samples", "100", "--curves"]
        ) == 0
        assert "cumulative" in capsys.readouterr().out

    def test_table2_small(self, capsys):
        assert main(
            ["table2", "--apps", "pip", "--budget", "200", "--with-paper"]
        ) == 0
        output = capsys.readouterr().out
        assert "TABLE II" in output
        assert "(38.58)" in output

    def test_scalability_small(self, capsys):
        assert main(["scalability", "--sides", "2", "--budget", "150"]) == 0
        assert "laser" in capsys.readouterr().out


class TestExport:
    def test_json(self, capsys):
        assert main(["export", "--app", "mwd", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "mwd"

    def test_dot(self, capsys):
        assert main(["export", "--app", "pip", "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_edges(self, capsys):
        assert main(["export", "--app", "pip", "--format", "edges"]) == 0
        assert "inp_mem1 hs" in capsys.readouterr().out


class TestErrors:
    def test_domain_error_returns_2(self, capsys, tmp_path):
        from repro.appgraph import save_cg_json, load_benchmark

        # VOPD (16 tasks) cannot fit a 3x3 grid: eq. (2) violation.
        assert main(
            ["optimize", "--app", "vopd", "--side", "3", "--budget", "10"]
        ) == 2
        assert "error" in capsys.readouterr().err


def _registry_with(run, monkeypatch):
    """Swap the subcommand registry for one raising command."""
    monkeypatch.setattr(
        cli, "SUBCOMMANDS",
        (cli.Subcommand("info", "test stub", lambda parser: None, run),),
    )


class TestExitCodes:
    def test_broken_pipe_exits_zero(self, monkeypatch):
        # `phonocmap table2 | head` used to die with a traceback once
        # head closed the pipe; a gone reader is a normal exit. Captured
        # streams have no OS-level fd, so the handler's /dev/null rewire
        # must degrade to a no-op instead of raising.
        import sys

        class _NoFdStream:
            def write(self, _text):
                return 0

            def flush(self):
                pass

            def fileno(self):
                raise ValueError("stream has no fd")

        def run(args):
            raise BrokenPipeError

        _registry_with(run, monkeypatch)
        monkeypatch.setattr(sys, "stdout", _NoFdStream())
        assert main(["info"]) == 0

    @pytest.mark.slow
    def test_broken_pipe_in_a_real_pipeline(self):
        # The dup2 path: an unbuffered child writes into a pipe whose
        # read end is already closed — every write raises EPIPE, the
        # handler points stdout at /dev/null, and the process still
        # exits 0 with no traceback.
        import os
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "sys.stdin.readline()\n"  # wait until the reader is gone
            "sys.exit(main(['table1']))\n"
        )
        src = os.path.abspath(
            os.path.join(os.path.dirname(cli.__file__), os.pardir)
        )
        env = dict(os.environ, PYTHONPATH=src)
        process = subprocess.Popen(
            [sys.executable, "-u", "-c", code],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env,
        )
        process.stdout.close()  # no reader: first write gets EPIPE
        process.stdin.write(b"go\n")
        process.stdin.close()
        _, err = None, process.stderr.read()
        assert process.wait(timeout=120) == 0, err
        assert b"Traceback" not in err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def run(args):
            raise KeyboardInterrupt

        _registry_with(run, monkeypatch)
        assert main(["info"]) == 130

    def test_registry_builds_every_subcommand(self):
        parser = cli.build_parser()
        for command in cli.SUBCOMMANDS:
            assert command.name in parser.format_help()


class TestObjectiveFlags:
    def test_evaluate_laser_power_objective(self, capsys):
        assert main(
            ["evaluate", "--app", "pip", "--seed", "1",
             "--objective", "laser_power"]
        ) == 0
        output = capsys.readouterr().out
        assert "laser-power budget" in output
        assert "objective (laser_power)" in output

    def test_evaluate_robust_objective_prints_fingerprint(self, capsys):
        assert main(
            ["evaluate", "--app", "pip", "--seed", "1",
             "--objective", "robust_snr", "--variation-samples", "2",
             "--variation-sigma", "0.03"]
        ) == 0
        output = capsys.readouterr().out
        assert "variation-robust SNR" in output
        assert "n=2" in output

    def test_optimize_robust_objective(self, capsys):
        assert main(
            ["optimize", "--app", "pip", "--strategy", "rs",
             "--budget", "100", "--seed", "4",
             "--objective", "robust_snr", "--variation-samples", "2"]
        ) == 0
        assert "robust_snr" in capsys.readouterr().out

    def test_unknown_objective_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--app", "pip", "--objective", "nonsense"])
        assert excinfo.value.code == 2


class TestSweep:
    def test_sweep_table_and_best(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(
            ["sweep", "--app", "pip", "--strategy", "rs", "--budget", "80",
             "--seed", "2", "--param", "crossing_loss_db=-0.04,-0.08",
             "--model-cache", str(tmp_path / "cache"),
             "--json-out", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "Device sweep" in output
        assert "best point:" in output
        document = json.loads(out.read_text())
        assert document["objective"] == "snr"
        assert len(document["points"]) == 2
        assert document["points"][1]["overrides"] == {
            "crossing_loss_db": -0.08
        }

    def test_sweep_without_axes_runs_the_base_point(self, tmp_path, capsys):
        assert main(
            ["sweep", "--app", "pip", "--strategy", "rs", "--budget", "60",
             "--model-cache", str(tmp_path / "cache")]
        ) == 0
        assert "(base)" in capsys.readouterr().out

    def test_malformed_param_axis_is_a_domain_error(self, capsys):
        assert main(
            ["sweep", "--app", "pip", "--param", "crossing_loss_db"]
        ) == 2
        assert "--param" in capsys.readouterr().err


class TestServe:
    def test_socket_or_port_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])
        with pytest.raises(SystemExit):
            main(["serve", "--socket", "/tmp/x.sock", "--port", "0"])

    @pytest.mark.slow
    def test_daemon_serves_and_drains_on_sigterm(self, tmp_path):
        """Full daemon lifecycle through the real CLI, in a subprocess."""
        import os
        import signal
        import socket
        import subprocess
        import sys
        import time

        path = str(tmp_path / "daemon.sock")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            for _ in range(300):
                if os.path.exists(path):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("daemon socket never appeared")
            connection = socket.socket(socket.AF_UNIX)
            connection.connect(path)
            connection.sendall(
                json.dumps({"kind": "evaluate", "app": "pip", "seed": 1}).encode()
                + b"\n"
            )
            response = json.loads(connection.makefile("rb").readline())
            connection.close()
            assert response["ok"], response
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
            assert not os.path.exists(path)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
