"""Tests for the Monte Carlo benchmark harness and report emitters."""

import dataclasses
import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from conftest import linear_model
from pflow.bench import (
    BenchConfig,
    CSV_HEADER,
    RunRecord,
    config_from_mapping,
    derive_seed,
    emit_csv,
    emit_markdown,
    emit_scatter_svg,
    normalize_vs_ekf,
    parse_config_file,
    rmse,
    run_benchmark,
)
from pflow.filters import FILTER_NAMES
from pflow.model import Trajectory, ungm_model


def record(filter_name, particles, rmse_value, runtime, run_index=0, **kw):
    defaults = dict(
        model="coupled", dim=100, filter=filter_name, particles=particles,
        run_index=run_index, seed=1, rmse=rmse_value, runtime_ms=runtime,
        n_lambda=10, master_seed=7,
    )
    defaults.update(kw)
    return RunRecord(**defaults)


def reference_records():
    """Per-run records reproducing the reference table's mean values."""
    data = {
        10: {"EKF": (542, 34.77), "EDH": (470, 212.8), "LEDH": (405, 1408.8),
             "A-EDH": (593, 61.66), "NA-EDH": (478, 68.14)},
        50: {"EKF": (542, 34.07), "EDH": (462, 254.1), "LEDH": (397, 6781.6),
             "A-EDH": (592, 69.58), "NA-EDH": (469, 89.12)},
        100: {"EKF": (542, 33.36), "EDH": (454, 280.3), "LEDH": (396, 13194),
              "A-EDH": (589, 83.37), "NA-EDH": (483, 144.3)},
        500: {"EKF": (542, 34.36), "EDH": (457, 519.3), "LEDH": (395, 70401),
              "A-EDH": (608, 170.33), "NA-EDH": (480, 307.9)},
    }
    records = []
    for particles, by_filter in data.items():
        for name, (err, ms) in by_filter.items():
            records.append(record(name, particles, float(err), float(ms)))
    return records


class TestRmse:
    def test_perfect_estimates(self):
        truth = np.arange(6.0).reshape(3, 2)
        assert rmse(truth, truth.copy()) == 0.0

    def test_constant_unit_error(self):
        truth = np.zeros((5, 1))
        assert rmse(truth, truth + 1.0) == 1.0

    def test_mixed_errors(self):
        truth = np.zeros((2, 1))
        estimates = np.array([[3.0], [4.0]])
        np.testing.assert_allclose(rmse(truth, estimates), np.sqrt(25.0 / 2.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 1)), np.zeros((2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((0, 1)), np.zeros((0, 1)))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 100, 50, 3) == derive_seed(7, 100, 50, 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, 100, 50, 3)
        assert derive_seed(8, 100, 50, 3) != base
        assert derive_seed(7, 101, 50, 3) != base
        assert derive_seed(7, 100, 51, 3) != base
        assert derive_seed(7, 100, 50, 4) != base

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(2 ** 63, 999) < 2 ** 64


class TestNormalizeVsEkf:
    def test_ekf_rows_are_exactly_one(self):
        table = normalize_vs_ekf(reference_records())
        for row in table.rows:
            if row.filter == "EKF":
                assert row.rmse_rel_ekf == 1.0
                assert row.runtime_rel_ekf == 1.0

    def test_reference_ratios(self):
        table = normalize_vs_ekf(reference_records())
        by_key = {(r.filter, r.particles): r for r in table.rows}
        np.testing.assert_allclose(by_key[("EDH", 10)].rmse_rel_ekf, 0.8672, atol=5e-5)
        np.testing.assert_allclose(by_key[("A-EDH", 10)].runtime_rel_ekf, 1.7734, atol=5e-5)

    def test_missing_baseline_raises(self):
        records = [record("EDH", 10, 470.0, 212.8)]
        with pytest.raises(ValueError, match="EKF baseline"):
            normalize_vs_ekf(records)

    def test_failed_runs_excluded(self):
        records = [
            record("EKF", 10, 100.0, 1.0, run_index=0),
            record("EKF", 10, float("nan"), 0.0, run_index=1, failed=True, error="boom"),
            record("EDH", 10, 50.0, 2.0, run_index=0),
        ]
        table = normalize_vs_ekf(records)
        by_filter = {r.filter: r for r in table.rows}
        assert by_filter["EKF"].mc_runs == 1
        np.testing.assert_allclose(by_filter["EDH"].rmse_rel_ekf, 0.5)

    def test_rows_sorted_canonically(self):
        table = normalize_vs_ekf(reference_records())
        keys = [(r.particles, r.filter) for r in table.rows]
        expected_filters = ["EKF", "EDH", "LEDH", "A-EDH", "NA-EDH"]
        assert keys == [(p, f) for p in (10, 50, 100, 500) for f in expected_filters]

    def test_pooled_ekf_baseline_for_unmatched_particle_count(self):
        records = [
            record("EKF", 10, 100.0, 2.0, run_index=0),
            record("EKF", 10, 140.0, 6.0, run_index=1),
            record("EDH", 10, 60.0, 8.0),
            record("EDH", 50, 90.0, 12.0),
        ]
        by_key = {(r.filter, r.particles): r for r in normalize_vs_ekf(records).rows}
        # EDH at N=50 has no EKF at N=50; it divides by the EKF@10 means.
        assert by_key[("EDH", 50)].rmse_rel_ekf == 90.0 / 120.0
        assert by_key[("EDH", 50)].runtime_rel_ekf == 12.0 / 4.0
        assert by_key[("EDH", 10)].rmse_rel_ekf == 60.0 / 120.0
        assert ("EKF", 50) not in by_key

    def test_zeroed_runtime_baseline(self):
        records = [record("EKF", 10, 100.0, 0.0), record("EDH", 10, 80.0, 0.0)]
        table = normalize_vs_ekf(records)
        assert all(r.runtime_rel_ekf == 0.0 for r in table.rows)


class TestEmitters:
    def test_csv_header_and_shape(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv(normalize_vs_ekf(reference_records()), str(path))
        content = path.read_bytes().decode("utf-8")
        lines = content.split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 20 + 1  # header, rows, trailing newline
        assert "\r" not in content
        assert content.endswith("\n")

    def test_empty_records_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(normalize_vs_ekf([]), str(path))
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_csv_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(normalize_vs_ekf(reference_records()), str(a))
        emit_csv(normalize_vs_ekf(reference_records()), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_markdown_grid(self, tmp_path):
        path = tmp_path / "table.md"
        emit_markdown(normalize_vs_ekf(reference_records()), str(path))
        content = path.read_text(encoding="utf-8")
        assert "| Performance | EKF | EDH | LEDH | A-EDH | NA-EDH |" in content
        assert "| RMSE_100 | 542 | 454 | 396 | 589 | 483 |" in content
        assert "| TIME_500 |" in content

    def test_scatter_svg_marker_count(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_scatter_svg(normalize_vs_ekf(reference_records()), str(path))
        root = ElementTree.parse(path).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        # 20 data markers plus 5 legend swatches.
        assert len(circles) == 25

    def test_scatter_single_point(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_scatter_svg(normalize_vs_ekf([record("EKF", 10, 1.0, 2.0)]), str(path))
        root = ElementTree.parse(path).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 2  # one marker, one legend swatch

    def test_unwritable_path_raises(self):
        with pytest.raises(OSError, match="cannot write"):
            emit_csv(normalize_vs_ekf([]), "/nonexistent-dir/results.csv")


class TestBenchConfig:
    def test_defaults_valid(self):
        config = BenchConfig()
        assert config.model == "coupled"
        assert config.filters == ("EKF", "EDH", "LEDH", "A-EDH", "NA-EDH")

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            BenchConfig(model="pendulum")

    def test_rejects_unknown_filter(self):
        with pytest.raises(ValueError):
            BenchConfig(filters=("EKF", "UKF"))

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            BenchConfig(dims=())
        with pytest.raises(ValueError):
            BenchConfig(particle_counts=())

    def test_mapping_conversion(self):
        config = config_from_mapping(
            {
                "model": "ungm",
                "particle_counts": "10, 50",
                "mc_runs": "3",
                "filters": "EKF, EDH",
                "no_timing": "true",
            }
        )
        assert config.model == "ungm"
        assert config.particle_counts == (10, 50)
        assert config.mc_runs == 3
        assert config.filters == ("EKF", "EDH")
        assert config.no_timing is True

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("True", True), ("1", True), ("YES", True),
        ("false", False), ("False", False), ("0", False), ("no", False),
    ])
    def test_mapping_reads_boolean_spellings(self, text, value):
        assert config_from_mapping({"full_ledh": text}).full_ledh is value

    @pytest.mark.parametrize("text", ["on", "ture", "", "2", "y"])
    def test_mapping_rejects_misspelled_boolean(self, text):
        with pytest.raises(ValueError, match="no_timing"):
            config_from_mapping({"no_timing": text})

    def test_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_mapping({"particles": "10"})

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# benchmark setup\n"
            "model = ungm\n"
            "mc_runs = 2\n"
            "particle_counts = 10,20  # ensembles\n"
            "\n",
            encoding="utf-8",
        )
        values = parse_config_file(str(path))
        assert values == {"model": "ungm", "mc_runs": "2", "particle_counts": "10,20"}

    def test_config_file_with_every_key_round_trips(self, tmp_path):
        config = BenchConfig(
            model="ungm", dims=(3, 7), particle_counts=(5, 20), lambda_steps=4, mc_runs=6,
            trajectory_steps=9, master_seed=123, filters=("EKF", "LEDH"), out_dir="results",
            no_timing=True, full_ledh=True,
        )
        lines = []
        for key, value in dataclasses.asdict(config).items():
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}")
        assert len(lines) == len(dataclasses.fields(BenchConfig))
        path = tmp_path / "bench.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert config_from_mapping(parse_config_file(str(path))) == config

    def test_config_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected"):
            parse_config_file(str(path))


class TestRunBenchmark:
    def test_single_ekf_run(self):
        config = BenchConfig(
            model="ungm", particle_counts=(10,), mc_runs=1, trajectory_steps=10,
            filters=("EKF",), master_seed=3,
        )
        records = run_benchmark(config)
        assert len(records) == 1
        table = normalize_vs_ekf(records)
        assert table.rows[0].rmse_rel_ekf == 1.0

    def test_record_count_is_product_of_sweep(self):
        config = BenchConfig(
            model="ungm", particle_counts=(5, 10), mc_runs=2, trajectory_steps=5,
            filters=("EKF", "EDH", "A-EDH"), master_seed=3, lambda_steps=3,
        )
        records = run_benchmark(config)
        assert len(records) == 3 * 2 * 2

    def test_same_seed_reproduces_rmse(self):
        config = BenchConfig(
            model="coupled", dims=(3,), particle_counts=(8,), mc_runs=2,
            trajectory_steps=8, filters=("EKF", "NA-EDH"), master_seed=11,
        )
        first = [r.rmse for r in run_benchmark(config)]
        second = [r.rmse for r in run_benchmark(config)]
        assert first == second

    def test_no_timing_zeroes_runtime(self):
        config = BenchConfig(
            model="ungm", particle_counts=(5,), mc_runs=1, trajectory_steps=5,
            filters=("EKF", "EDH"), master_seed=3, lambda_steps=2, no_timing=True,
        )
        records = run_benchmark(config)
        assert all(r.runtime_ms == 0.0 for r in records)

    def test_ledh_trimmed_at_high_dimension(self):
        config = BenchConfig(
            model="coupled", dims=(100,), particle_counts=(101,), mc_runs=1,
            trajectory_steps=2, filters=("EKF", "LEDH"), master_seed=5,
        )
        names = {r.filter for r in run_benchmark(config)}
        assert names == {"EKF"}

        full = run_benchmark(
            BenchConfig(
                model="coupled", dims=(100,), particle_counts=(101,), mc_runs=1,
                trajectory_steps=2, filters=("EKF", "LEDH"), master_seed=5,
                full_ledh=True,
            )
        )
        assert {r.filter for r in full} == {"EKF", "LEDH"}

    def test_trajectories_shared_across_filters(self):
        # Common random numbers: EKF records must be identical whether or
        # not other filters run in the same sweep.
        base = dict(
            model="coupled", dims=(2,), particle_counts=(5,), mc_runs=2,
            trajectory_steps=6, master_seed=17,
        )
        alone = [r.rmse for r in run_benchmark(BenchConfig(filters=("EKF",), **base))]
        paired = [
            r.rmse
            for r in run_benchmark(BenchConfig(filters=("EKF", "A-EDH"), **base))
            if r.filter == "EKF"
        ]
        assert alone == paired

    def test_divergent_runs_are_booked_with_their_step(self, monkeypatch):
        # Every filter, the EKF included, fails at the first step whose
        # estimate is nonfinite and books that step.
        def exploding_ungm():
            return dataclasses.replace(ungm_model(), transition=lambda x, k: x * 1e200)

        monkeypatch.setattr("pflow.bench.ungm_model", exploding_ungm)
        config = BenchConfig(
            model="ungm", particle_counts=(5,), mc_runs=1, trajectory_steps=3,
            lambda_steps=2, master_seed=3,
        )
        with np.errstate(all="ignore"):  # simulate runs outside the sweep's errstate
            records = run_benchmark(config)
        assert [r.filter for r in records] == list(FILTER_NAMES)
        for r in records:
            assert r.failed and np.isnan(r.rmse) and r.runtime_ms == 0.0, r
            assert "time step 1" in r.error, r

    def test_overflowing_rmse_is_a_failed_run(self, monkeypatch):
        # Finite estimates of 1e200 against zero states overflow the
        # squared error, not the estimates.
        monkeypatch.setattr(
            "pflow.bench.ungm_model", lambda: linear_model([[0.9]], [[1.0]], [[1.0]], [[1.0]])
        )
        monkeypatch.setattr(
            "pflow.bench.simulate",
            lambda model, x0, steps, rng: Trajectory(
                states=np.zeros((steps, 1)), measurements=np.full((steps, 1), 1e200), steps=steps
            ),
        )
        config = BenchConfig(
            model="ungm", particle_counts=(5,), mc_runs=1, trajectory_steps=3,
            lambda_steps=2, master_seed=3,
        )
        records = run_benchmark(config)  # no errstate: the sweep must contain the overflow
        assert len(records) == len(FILTER_NAMES)
        for r in records:
            assert r.failed and np.isnan(r.rmse) and r.runtime_ms == 0.0, r
            assert r.error.startswith("nonfinite RMSE"), r

    def test_programming_error_propagates(self, monkeypatch):
        # A measurement that returns two values for one state of an n_z = 1
        # model is a bug in the model, not a divergent run: the sweep must
        # raise instead of booking a failed run.
        def broken_ungm():
            model = ungm_model()
            h = model.measurement
            return dataclasses.replace(
                model, measurement=lambda x: h(x) if x.ndim == 2 else np.repeat(h(x), 2)
            )

        monkeypatch.setattr("pflow.bench.ungm_model", broken_ungm)
        config = BenchConfig(
            model="ungm", particle_counts=(5,), mc_runs=1, trajectory_steps=3,
            filters=("EKF",), master_seed=3,
        )
        with pytest.raises(ValueError):
            run_benchmark(config)
