"""The benchmark tracer (perfbench/spans.py) still finds every name it patches.

The tracer wraps pflow's callables by module and name for a traced run
(`perfbench/run.py --trace 1`). A rename in pflow breaks it only there,
so this test enters and leaves its patching in the tier-1 suite.
"""

import ast
import importlib.util
from pathlib import Path

import pflow

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = (pflow.bench, pflow.filters, pflow.flow_core, pflow.oracle)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    return [dict(vars(module)) for module in MODULES]


def same_objects(a, b):
    return a.keys() == b.keys() and all(a[name] is b[name] for name in a)


def test_instrument_patches_and_restores_every_name():
    spans = load_spans()
    before = namespaces()
    updates = dict(pflow.filters._UPDATES)
    with spans.instrument(pflow, spans.Tracer()):
        during = namespaces()
        assert all(pflow.filters._UPDATES[v] is not fn for v, fn in updates.items())
    assert not any(same_objects(b, d) for b, d in zip(before, during))
    for module, names in zip(MODULES, before):
        assert same_objects(dict(vars(module)), names), module.__name__
    assert same_objects(pflow.filters._UPDATES, updates)


def test_every_flow_core_import_of_filters_is_read_or_traced():
    # filters.py keeps some flow_core names only for the tracer to wrap.
    # Once the tracer stops patching one, its import is dead and fails here.
    tree = ast.parse(Path(pflow.filters.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "flow_core"
        for alias in node.names
    ]
    loaded = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    spans = load_spans()
    before = dict(vars(pflow.filters))
    with spans.instrument(pflow, spans.Tracer()):
        patched = {name for name in imported if vars(pflow.filters)[name] is not before[name]}
    assert imported
    assert [name for name in imported if name not in loaded | patched] == []
