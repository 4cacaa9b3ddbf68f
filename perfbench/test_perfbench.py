"""Fast checks of the benchmark's own assumptions, at a small config.

Run from the checkout root: python3 -m pytest -q perfbench
"""

import json

import pytest

import checkout
import run
import spans

pflow = checkout.import_pflow()

SMALL = {
    "ungm": dict(model="ungm", particle_counts=(6,), lambda_steps=3, mc_runs=2, trajectory_steps=5),
    "coupled": dict(model="coupled", dims=(4,), particle_counts=(6,), lambda_steps=3, mc_runs=2,
                    trajectory_steps=5),
}


def sweep(model: str, filters=run.FILTERS, master_seed: int = 11):
    config = pflow.bench.BenchConfig(**SMALL[model], master_seed=master_seed, filters=tuple(filters))
    return pflow.bench.run_benchmark(config)


def rmse_by_run(records):
    return {(r.filter, r.run_index): r.rmse for r in records}


@pytest.mark.parametrize("model", sorted(SMALL))
def test_per_filter_calls_reproduce_the_all_filter_sweep(model):
    # run.py times one run_benchmark call per filter; common random numbers
    # must survive that split, or run_ms.* and rmse.* would describe
    # different inputs for different filters.
    together = rmse_by_run(sweep(model))
    split = {}
    for name in run.FILTERS:
        split.update(rmse_by_run(sweep(model, filters=(name,))))
    assert split == together
    assert len(together) == len(run.FILTERS) * SMALL[model]["mc_runs"]


@pytest.mark.parametrize("model", sorted(SMALL))
def test_traced_sweep_is_bit_identical_and_restores_pflow(model):
    before = {name: getattr(pflow.bench, name) for name in ("run_benchmark", "run_filter", "simulate")}
    updates = dict(pflow.filters._UPDATES)
    plain = rmse_by_run(sweep(model))
    tracer = spans.Tracer()
    with spans.instrument(pflow, tracer):
        traced = rmse_by_run(sweep(model))
    assert traced == plain
    assert tracer.count("filters.run_filter") == len(plain)
    assert {name: getattr(pflow.bench, name) for name in before} == before
    assert pflow.filters._UPDATES == updates


def test_traced_oracle_pass_is_bit_identical():
    plain = pflow.oracle.verify_closed_forms(n_instances=2, seed=3, rk4_steps=50)
    tracer = spans.Tracer()
    with spans.instrument(pflow, tracer):
        traced = pflow.oracle.verify_closed_forms(n_instances=2, seed=3, rk4_steps=50)
    assert traced == plain
    assert tracer.count("oracle.integrate_flow_batch") == 2


def test_model_callback_count_is_exact():
    # UNGM, LEDH: per step N transitions in prediction, two callbacks each
    # in EKF predict and update, and a Jacobian plus a measurement per
    # particle per pseudo-time step.
    tracer = spans.Tracer()
    tracer.tag = "LEDH"
    with spans.instrument(pflow, tracer):
        sweep("ungm", filters=("LEDH",))
    n, lam, steps = 6, 3, 5 * 2
    callbacks = sum(
        tracer.calls("LEDH", f"model.{cb}", exclude_parent="model.simulate")
        for cb in spans.MODEL_CALLBACKS
    )
    assert callbacks == steps * (n + 4 + 2 * lam * n)


def test_metric_names_match_benchmark_json():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
