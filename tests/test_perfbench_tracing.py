"""The benchmark's tracer (``perfbench/tracing.py``) still finds every
engine function and operator method it wraps by name, so a deletion or
rename in ``repro`` that would break ``perfbench/run.py --trace`` fails
here."""
import dataclasses
import importlib.util
from pathlib import Path

from repro.bench.prop_pages import _dataset_params, khop_spec
from repro.proc.lbp import compile_lbp, run_lbp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_layer_resolves_and_is_restored(tiny, tiny_store):
    tracing = _tracing()
    originals = {
        (owner, attr): vars(owner)[attr]
        for owner, attr, _, _ in tracing._targets()
    }
    elabel, vlabel, prop = _dataset_params(tiny)
    spec = khop_spec(elabel, vlabel, prop, 2)
    want = run_lbp(tiny_store, spec)
    with tracing.installed(tracing.Tracer()) as tracer:
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn, f"{owner.__name__}.{attr}"
        assert run_lbp(tiny_store, spec) == want
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn
    assert tracer.calls["proc.lbp.compile_lbp"] == 1
    assert tracer.calls["proc.operators.PhysBatchExtend"] > 0
    assert tracer.calls["proc.operators.PhysExtendFilterCount"] > 0


def test_chain_build_is_traced_under_the_counter(tiny, tiny_store):
    # An unselective 3-hop chain builds its suffix weights inside the
    # counter's traced consume, so the build's property reads have a
    # PhysExtendFilterCount span as their parent.
    tracing = _tracing()
    elabel, vlabel, prop = _dataset_params(tiny)
    spec = khop_spec(elabel, vlabel, prop, 3)
    low = int(tiny.etables[elabel][prop].min()) - 1
    spec = dataclasses.replace(spec, predicates=[
        p if p.rhs_var else dataclasses.replace(p, value=low)
        for p in spec.predicates
    ])
    want = run_lbp(tiny_store, spec)
    with tracing.installed(tracing.Tracer()) as tracer:
        scan, sink = compile_lbp(tiny_store, spec)
        scan.run()
    assert sink.weights is not None and sink.count == want
    names = tracer.names
    counter = names.index("proc.operators.PhysExtendFilterCount")
    parents = {
        tracer.span_name[parent]
        for name, parent in zip(tracer.span_name, tracer.span_parent)
        if names[name].startswith("storage.property_pages.") and parent >= 0
    }
    assert counter in parents
