"""The benchmark's tracer (``perfbench/tracing.py``) still finds every
engine function and operator method it wraps by name, so a deletion or
rename in ``repro`` that would break ``perfbench/run.py --trace`` fails
here."""
import importlib.util
from pathlib import Path

from repro.bench.prop_pages import _dataset_params, khop_spec
from repro.proc.lbp import run_lbp

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
