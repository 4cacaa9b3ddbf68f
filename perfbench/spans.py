"""Layer spans recorded from outside the program.

For a traced run the benchmark replaces the public callables at pflow's
module boundaries with wrappers that time each call. Every call is a
span with a name, a start, an end and a parent (the span open when it
started). Spans are folded into per-(tag, parent, name) totals as they
close, so a run of hundreds of thousands of model callbacks stays small
in memory; the tag names the workload step that caused them (a filter
name or `verify`). A span's self time is its duration minus the time
its child spans cover.

The wrappers return exactly what the wrapped callable returns, so a
traced run computes bit-identical results.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import contextmanager
from time import perf_counter

MODEL_CALLBACKS = ("transition", "measurement", "transition_jacobian", "measurement_jacobian")

# Spans of the closed forms proper, summed into flow_core.closed_forms.
CLOSED_FORMS = (
    "flow_core.build_coefficients",
    "flow_core.transition_matrix",
    "flow_core.psi_term",
    "flow_core.analytic_flow_map",
)


class Tracer:
    """Span stack plus folded totals: key -> [calls, total_s, self_s]."""

    def __init__(self) -> None:
        self.tag = ""
        self.totals: dict[tuple[str, str, str], list] = {}
        self._stack: list[list] = []  # [name, child seconds] of each open span

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = self._stack[-1][0] if self._stack else ""
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                entry = self.totals.setdefault((self.tag, parent, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]

        return traced

    def calls(self, tag: str, name: str, exclude_parent: str | None = None) -> int:
        return sum(
            v[0] for (t, p, n), v in self.totals.items()
            if t == tag and n == name and p != exclude_parent
        )

    def self_s(self, tag: str, name: str, exclude_parent: str | None = None) -> float:
        return sum(
            v[2] for (t, p, n), v in self.totals.items()
            if t == tag and n == name and p != exclude_parent
        )

    def total_s(self, name: str) -> float:
        return sum(v[1] for (_, _, n), v in self.totals.items() if n == name)

    def count(self, name: str) -> int:
        return sum(v[0] for (_, _, n), v in self.totals.items() if n == name)

    def dump(self) -> list[dict]:
        return [
            {"tag": t, "parent": p, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for (t, p, n), v in sorted(self.totals.items())
        ]


def _traced_model(tracer: Tracer, model):
    """The same model with every callback wrapped in a `model.<callback>` span."""
    return dataclasses.replace(
        model,
        **{cb: tracer.wrap(f"model.{cb}", getattr(model, cb)) for cb in MODEL_CALLBACKS},
    )


def _traced_constructor(tracer: Tracer, fn):
    span = tracer.wrap("model.build_model", fn)

    @functools.wraps(fn)
    def build(*args, **kwargs):
        return _traced_model(tracer, span(*args, **kwargs))

    return build


@contextmanager
def instrument(pflow, tracer: Tracer):
    """Wrap pflow's layer boundaries for the duration of the block.

    The names are patched where their callers look them up: filters.py
    and bench.py import their collaborators by name, so the wrappers go
    into those modules' namespaces; verify_closed_forms imports the
    closed forms from flow_core at call time.
    """
    bench, filters, flow_core, oracle = pflow.bench, pflow.filters, pflow.flow_core, pflow.oracle
    patches = [
        (bench, "run_benchmark", "bench.run_benchmark"),
        (bench, "run_filter", "filters.run_filter"),
        (bench, "simulate", "model.simulate"),
        (filters, "ekf_predict", "ekf.ekf_predict"),
        (filters, "ekf_update", "ekf.ekf_update"),
        (filters, "predict_particles", "filters.predict_particles"),
        (filters, "validate_flow_inputs", "flow_core.validate_flow_inputs"),
        (filters, "_assemble_coefficients", "flow_core._assemble_coefficients"),
        (filters, "apply_flow_ensemble", "flow_core.apply_flow_ensemble"),
        (filters, "drift_matrix_A", "flow_core.drift_matrix_A"),
        (filters, "drift_vector_b", "flow_core.drift_vector_b"),
        (oracle, "verify_closed_forms", "oracle.verify_closed_forms"),
        (oracle, "matrix_exponential", "oracle.matrix_exponential"),
        (oracle, "integrate_flow_batch", "oracle.integrate_flow_batch"),
        (oracle, "quadrature_inhomogeneous", "oracle.quadrature_inhomogeneous"),
        (oracle, "commutator_norm", "oracle.commutator_norm"),
        (oracle, "kalman_posterior", "oracle.kalman_posterior"),
        (oracle, "random_flow_instance", "oracle.random_flow_instance"),
        (oracle, "build_coefficients", "flow_core.build_coefficients"),
        (oracle, "drift_matrix_A", "flow_core.drift_matrix_A"),
        (flow_core, "transition_matrix", "flow_core.transition_matrix"),
        (flow_core, "psi_term", "flow_core.psi_term"),
        (flow_core, "analytic_flow_map", "flow_core.analytic_flow_map"),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    saved += [(bench, attr, getattr(bench, attr)) for attr in ("random_coupled_model", "ungm_model")]
    updates = dict(filters._UPDATES)
    try:
        for module, attr, name in patches:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        for attr in ("random_coupled_model", "ungm_model"):
            setattr(bench, attr, _traced_constructor(tracer, getattr(bench, attr)))
        for variant, fn in updates.items():
            filters._UPDATES[variant] = tracer.wrap(f"filters.{fn.__name__}", fn)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
        filters._UPDATES.update(updates)
