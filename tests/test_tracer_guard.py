"""execute must call each traced layer through the names bench/tracing.py patches.

The benchmark's tracer wraps module globals and class attributes from
outside the package.  A call that goes past them (a table of functions
captured at import, an alias, a private copy) runs untraced, and the
per-layer numbers silently read zero.  This test installs the tracer, runs
one small session with every query kind, and checks that each layer ran as
a direct child of the documents.execute span.
"""

import importlib.util
from pathlib import Path

import daxcalc.documents

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

SESSION = {
    "manifold": "boundary_connect_sum",
    "discs": {"d1": {"sr_discs": [{"sign": 1, "word": "t"}]}, "d0": {}},
    "queries": [
        {"kind": "invariant", "disc": "d1"},
        {"kind": "compare", "discs": ["d1", "d0"]},
        {"kind": "reduce", "element": "t^-3 + t"},
        {"kind": "normalize", "disc": "d1"},
        {"kind": "pairing", "points": [{"sign": 1, "word": "t"}]},
    ],
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("daxcalc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_execute_reaches_every_traced_layer():
    tracing = _load_tracing()
    doc = daxcalc.documents.session_from_json(SESSION)
    original = daxcalc.documents.execute
    tracer = tracing.Tracer()
    try:
        tracer.install()
        results = daxcalc.documents.execute(doc)
    finally:
        tracer.restore()
    assert daxcalc.documents.execute is original
    assert [r["kind"] for r in results] == ["invariant", "compare", "reduce", "normalize", "pairing"]

    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("documents.execute") == 1
    top = names.index("documents.execute")
    children = {span[tracing.NAME] for span in tracer.spans if span[tracing.PARENT] == top}
    for name in ("engine.phi", "engine.compare", "forms.normalize", "pairing.dax_value"):
        assert name in children, f"{name} did not run under documents.execute"
    assert any(name.startswith("kernel.reduce.") for name in children)
