"""End-to-end tests for the pflow command-line interface."""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

import pflow.flow_core
import pflow.oracle
from pflow.bench import BenchConfig
from pflow.cli import _blas_version, _build_parser, main
from pflow.model import ungm_model


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

    def test_zero_steps_writes_the_header_only(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--steps", "0", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "k,x1,z1\n"


class TestVerify:
    def test_one_instance_passes(self, capsys):
        assert main(["verify", "--instances", "1", "--seed", "2"]) == 0
        assert "all closed forms verified" in capsys.readouterr().out

    def test_small_run_passes(self, capsys):
        code = main(["verify", "--instances", "6", "--seed", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "all closed forms verified" in captured.out
        assert captured.out.count("OK") >= 6

    def test_nan_deviation_fails(self, monkeypatch, capsys):
        real = pflow.flow_core.transition_matrix
        monkeypatch.setattr(
            pflow.flow_core, "transition_matrix", lambda *args: real(*args) * math.nan
        )
        code = main(["verify", "--instances", "3", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "verification FAILED" in captured.out
        lines = {line.split()[0]: line for line in captured.out.splitlines() if "deviation" in line}
        for name in ("phi_vs_matrix_exponential", "flow_map_vs_rk4", "kalman_mean", "kalman_covariance"):
            assert "= nan" in lines[name] and lines[name].endswith("FAIL"), lines[name]

    def test_nan_quadrature_fails(self, monkeypatch, capsys):
        real = pflow.oracle._offset_term
        monkeypatch.setattr(pflow.oracle, "_offset_term", lambda *args: real(*args) * math.nan)
        code = main(["verify", "--instances", "3", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "verification FAILED" in captured.out
        lines = {line.split()[0]: line for line in captured.out.splitlines() if "deviation" in line}
        assert "= nan" in lines["psi_vs_quadrature"] and lines["psi_vs_quadrature"].endswith("FAIL")

    def test_worst_instance_is_found_again_by_its_seed(self, monkeypatch, capsys):
        def result_lines():
            out = capsys.readouterr().out
            return {line.split()[0]: line for line in out.splitlines() if "deviation" in line}

        assert main(["verify", "--instances", "9", "--seed", "4"]) == 0
        lines = result_lines()

        # Rerun the printed seed, recording every instance as it is drawn.
        drawn, drift_calls = [], []
        real_instance, real_interval = pflow.oracle.random_flow_instance, pflow.oracle.random_interval
        real_drift = pflow.oracle.drift_matrix_A

        def instance(rng, n):
            drawn.append([real_instance(rng, n)])
            return drawn[-1][0]

        def interval(rng):
            drawn[-1].append(real_interval(rng))
            return drawn[-1][1]

        def drift(P, Hm, Rm, lam):
            drift_calls.append((P.shape[0], Hm.shape[0], lam))
            return real_drift(P, Hm, Rm, lam)

        monkeypatch.setattr(pflow.oracle, "random_flow_instance", instance)
        monkeypatch.setattr(pflow.oracle, "random_interval", interval)
        monkeypatch.setattr(pflow.oracle, "drift_matrix_A", drift)
        main(["verify", "--instances", "9", "--seed", "4"])
        assert result_lines() == lines

        for name, line in lines.items():
            assert line.split()[-1] == "OK"
            if name == "commutator":
                case, n_x, n_z, lam, tau = re.search(
                    r"at instance (\d+): n_x=(\d+), n_z=(\d+), lam=(\S+), tau=(\S+)  OK$", line
                ).groups()
                # Each commutator instance forms its 5 grid matrices, in grid order.
                assert len(drift_calls) == 5 * 9
                calls = drift_calls[5 * int(case): 5 * int(case) + 5]
                grid = [point for _, _, point in calls]
                assert grid == list(np.linspace(0.0, 1.0, 5))
                assert {(nx, nz) for nx, nz, _ in calls} == {(int(n_x), int(n_z))}
                assert float(lam) < float(tau) and {float(lam), float(tau)} <= set(grid)
                continue
            case, n, lam0, lam, ratio = re.search(
                r"at instance (\d+): n=(\d+), lam (\S+) to (\S+), p/r=([^,\s]+)", line
            ).groups()
            coeffs, interval = drawn[int(case)]
            assert coeffs.P.shape[0] == int(n), name
            assert float(ratio) == pytest.approx(coeffs.p / coeffs.r, rel=1e-3), name
            if not name.startswith("kalman"):
                assert (float(lam0), float(lam)) == pytest.approx(interval, abs=1e-6), name

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_instance_count_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", count, "--seed", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--instances must be >= 1" in captured.err
        assert "verified" not in captured.out

    @pytest.mark.parametrize("command", [["verify", "--instances", "2"], ["simulate", "--steps", "2"]])
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{command[0]} --seed must be >= 0, got -1" in captured.err
        assert captured.out == ""


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
        assert metadata["config"]["dims"] == [1]  # UNGM's only dimension
        assert metadata["notes"]["common_random_numbers_across_filters"] is True
        assert "table rows" in capsys.readouterr().out

    def test_metadata_records_numpy_and_thread_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(self._args(tmp_path, ("--no-timing",))) == 0
        metadata = json.loads((tmp_path / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["environment"] == {
            "numpy_version": np.__version__,
            "blas": _blas_version(),
            "thread_variables": {
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
            },
        }

    def test_metadata_records_the_blas_build(self, tmp_path, monkeypatch):
        # Coupled figures reproduce only on one BLAS build, so the sidecar names it.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert main(self._args(tmp_path / "a", ("--no-timing",))) == 0
        metadata = json.loads((tmp_path / "a" / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["environment"]["blas"] == f"{blas['name']} {blas['version']}"

        def no_config(mode):
            raise KeyError("Build Dependencies")

        monkeypatch.setattr(np, "show_config", no_config)
        assert main(self._args(tmp_path / "b", ("--no-timing",))) == 0
        metadata = json.loads((tmp_path / "b" / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["environment"]["blas"] == "unknown"

    def test_no_timing_is_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        main(self._args(dir_a, ("--no-timing",)))
        main(self._args(dir_b, ("--no-timing",)))
        for name in ("results.csv", "results.md", "scatter.svg", "metadata.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_every_config_field_has_a_flag(self):
        # Each flag's dest is its BenchConfig field, and an absent flag is
        # None so that it leaves the config-file value alone.
        args = vars(_build_parser().parse_args(["bench"]))
        for field in dataclasses.fields(BenchConfig):
            assert field.name in args, field.name
            assert args[field.name] is None, field.name

    def test_filters_without_ekf_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--model", "ungm", "--particle-counts", "10", "--mc-runs", "1",
                  "--trajectory-steps", "5", "--filters", "A-EDH", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "must include EKF" in capsys.readouterr().err
        assert not out.exists()  # rejected before any run

    def test_failed_runs_are_reported_and_strict_exits_1(self, tmp_path, monkeypatch, capsys):
        # The second run index explodes; the first keeps every group's
        # EKF baseline.
        def sweep(extra=()):
            exploding = dataclasses.replace(ungm_model(), transition=lambda x, k: x * 1e200)
            models = iter([ungm_model(), exploding])
            monkeypatch.setattr("pflow.bench.ungm_model", lambda: next(models))
            with np.errstate(all="ignore"):  # simulate runs outside the sweep's errstate
                return main(self._args(tmp_path, extra))

        assert sweep() == 0
        err = capsys.readouterr().err
        assert "3 run(s) failed" in err
        assert "EKF dim=1 N_p=8 run=1: nonfinite estimate at time step 1" in err
        metadata = json.loads((tmp_path / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["failed_runs"] == 3
        assert sweep(("--strict",)) == 1

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

    @pytest.mark.parametrize(
        "argv, config, seed_env",
        [
            (["bench", "--mc-runs", "0"], None, None),
            (["bench", "--dims", "x"], None, None),
            (["bench", "--dims", ""], None, None),
            (["bench", "--out-dir", ""], None, None),
            (["bench"], "mc_runs = abc\n", None),
            (["bench"], "particles = 10\n", None),
            (["bench"], "no_timing = ture\n", None),
            (["bench"], None, "abc"),
            (["bench", "--config", "missing.cfg"], None, None),
            (["simulate", "--model", "coupled", "--dim", "0"], None, None),
            (["simulate", "--steps", "-1"], None, None),
            (["bench", "--dims", "3,3", "--particle-counts", "5", "--mc-runs", "2",
              "--filters", "EKF,A-EDH,A-EDH", "--no-timing"], None, None),
            (["bench", "--dims", "3", "--particle-counts", "5,7,5"], None, None),
            (["bench", "--model", "ungm", "--filters", "EKF,EDH,EKF"], None, None),
            (["bench"], "dims = 10\ndims = 20\n", None),
        ],
        ids=["mc-runs-0", "dims-x", "dims-empty", "out-dir-empty", "config-value",
             "config-key", "config-boolean", "seed-env", "config-missing",
             "simulate-dim-0", "simulate-steps-negative", "dims-repeated",
             "particle-counts-repeated", "filters-repeated", "config-key-repeated"],
    )
    def test_bad_input_is_a_usage_error(self, argv, config, seed_env, tmp_path,
                                        monkeypatch, capsys):
        out = tmp_path / "out"
        if argv[0] == "simulate":
            argv = argv + ["--out", str(out)]
        elif "--out-dir" not in argv:
            argv = argv + ["--out-dir", str(out)]
        if config is not None:
            path = tmp_path / "bench.cfg"
            path.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PFLOW_SEED", raising=False)
        if seed_env is not None:
            monkeypatch.setenv("PFLOW_SEED", seed_env)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "pflow: error:" in capsys.readouterr().err
        assert not out.exists()
