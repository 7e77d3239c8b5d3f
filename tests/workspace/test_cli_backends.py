"""The ``--backend``/``--jobs`` CLI flags on ``diff`` and ``matrix``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.store import WorkflowStore


@pytest.fixture
def store_root(ws):
    return str(ws.store.root)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBackendFlags:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_diff_runs_on_every_backend(
        self, store_root, capsys, backend
    ):
        code, out, _ = run_cli(
            capsys, "diff", store_root, "PA", "r01", "r02",
            "--backend", backend, "--jobs", "2",
        )
        assert code == 0
        assert "delta(r01, r02)" in out

    def test_backends_agree_on_the_matrix(self, store_root, capsys):
        payloads = {}
        for backend in ("serial", "thread"):
            code, out, _ = run_cli(
                capsys, "matrix", store_root, "PA", "--json",
                "--backend", backend,
            )
            assert code == 0
            payloads[backend] = json.loads(out)["distances"]
        assert payloads["serial"] == payloads["thread"]

    def test_unknown_backend_rejected_by_argparse(
        self, store_root, capsys
    ):
        with pytest.raises(SystemExit):
            main([
                "matrix", store_root, "PA", "--backend", "gpu",
            ])

    def test_invalid_jobs_is_a_clean_error(self, store_root, capsys):
        code, _, err = run_cli(
            capsys, "matrix", store_root, "PA", "--jobs", "0"
        )
        assert code == 1  # ReproError → 1; usage errors → 2 (argparse)
        assert "jobs" in err

    def test_query_and_export_have_no_backend_flag(
        self, store_root, capsys
    ):
        """The flags ride only on the batch-heavy subcommands."""
        with pytest.raises(SystemExit):
            main([
                "query", store_root, "PA", "--backend", "serial",
            ])

    def test_flags_share_the_persistent_cache(
        self, store_root, capsys, ws
    ):
        """A thread-backend run warms the same on-disk cache a later
        default-backend invocation answers from."""
        code, _, _ = run_cli(
            capsys, "matrix", store_root, "PA", "--backend", "thread",
        )
        assert code == 0
        from repro.config import ReproConfig
        from repro.workspace import Workspace

        warm = Workspace(
            WorkflowStore(store_root), ReproConfig(backend="serial")
        )
        warm.matrix()
        assert warm.service.computed_pairs == 0


class TestProcessBackendRefused:
    """``process`` is no longer a backend: a usage error as a flag, a
    clean ReproError from the environment."""

    @pytest.mark.parametrize("command", ["diff", "matrix", "serve"])
    def test_flag_is_a_usage_error(self, command, store_root, capsys):
        operands = {"diff": ["PA", "r01", "r02"], "matrix": ["PA"]}
        with pytest.raises(SystemExit) as excinfo:
            main([
                command, store_root, *operands.get(command, []),
                "--backend", "process",
            ])
        assert excinfo.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

    def test_environment_is_a_clean_serve_error(self, store_root):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, REPRO_BACKEND="process", PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve", store_root,
                "--port", "0",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "unknown backend 'process'" in proc.stderr
        assert "serial, thread" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestNoKernelFlag:
    """One DP kernel: no subcommand offers a way to choose another."""

    @pytest.mark.parametrize("command", ["diff", "matrix", "query", "serve"])
    def test_help_lists_no_kernel_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--backend" in out or command == "query"
        assert "--kernel" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["diff", "PA", "r01", "r02"],
            ["matrix", "PA"],
            ["query", "PA"],
        ],
        ids=["diff", "matrix", "query"],
    )
    def test_kernel_flag_is_a_usage_error(self, argv, store_root, capsys):
        command, *rest = argv
        with pytest.raises(SystemExit) as excinfo:
            main([command, store_root, *rest, "--kernel", "python"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err
