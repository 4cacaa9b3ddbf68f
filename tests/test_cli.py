"""End-to-end tests for the pflow command-line interface."""

import json
import os

import pytest

from pflow.cli import main


class TestSimulate:
    def test_writes_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--model", "ungm", "--steps", "12", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "k,x1,z1"
        assert len(lines) == 13

    def test_coupled_model_dimensions(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["simulate", "--model", "coupled", "--dim", "3", "--steps", "4",
              "--seed", "1", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "k,x1,x2,x3,z1"
        assert len(lines) == 5

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--steps", "6", "--seed", "9", "--out", str(a)])
        main(["simulate", "--steps", "6", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_path(self, capsys):
        assert main(["simulate", "--steps", "2", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("k,x1,z1\n")


class TestVerify:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--instances", "6", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "all closed forms verified" in captured.out
        assert captured.out.count("OK") >= 6

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_instance_count_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", count, "--seed", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--instances must be >= 1" in captured.err
        assert "verified" not in captured.out


class TestBench:
    def _args(self, tmp_path, extra=()):
        return [
            "bench", "--model", "ungm", "--particle-counts", "8", "--mc-runs", "2",
            "--trajectory-steps", "6", "--lambda-steps", "3", "--seed", "21",
            "--filters", "EKF,EDH,A-EDH", "--out-dir", str(tmp_path), *extra,
        ]

    def test_writes_all_outputs(self, tmp_path, capsys):
        code = main(self._args(tmp_path))
        assert code == 0
        for name in ("results.csv", "results.md", "scatter.svg", "metadata.json"):
            assert (tmp_path / name).exists(), name
        metadata = json.loads((tmp_path / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["config"]["master_seed"] == 21
        assert metadata["notes"]["common_random_numbers_across_filters"] is True
        assert "table rows" in capsys.readouterr().out

    def test_no_timing_is_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        main(self._args(dir_a, ("--no-timing",)))
        main(self._args(dir_b, ("--no-timing",)))
        assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "model = ungm\nparticle_counts = 8\nmc_runs = 5\ntrajectory_steps = 6\n"
            "lambda_steps = 3\nfilters = EKF\nmaster_seed = 4\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["bench", "--config", str(cfg), "--mc-runs", "1",
                     "--out-dir", str(out)])
        assert code == 0
        metadata = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["config"]["mc_runs"] == 1  # flag wins over file
        assert metadata["config"]["master_seed"] == 4

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PFLOW_SEED", "77")
        out = tmp_path / "out"
        main(["bench", "--model", "ungm", "--particle-counts", "8", "--mc-runs", "1",
              "--trajectory-steps", "5", "--lambda-steps", "2", "--filters", "EKF",
              "--out-dir", str(out)])
        metadata = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["config"]["master_seed"] == 77


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_bad_model(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "lorenz"])
