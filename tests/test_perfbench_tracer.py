"""The benchmark's tracer wraps the package's functions by module and name.

A rename of any function it wraps breaks ``perfbench/run.py --trace 1``;
installing the tracer here makes that a test failure.
"""

import importlib.util
import sys
from pathlib import Path

import curvedheat.cli  # noqa: F401  (loads every module the tracer wraps)
from curvedheat import make_euclidean, spectral

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    tracing = load_tracer()
    wrapped = tracing.SPAN_FUNCTIONS + tracing.AGGREGATE_FUNCTIONS + tracing.AGGREGATE_BINDINGS
    originals = {(mod, name): getattr(sys.modules[mod], name) for mod, name, *_ in wrapped}
    tr = tracing.Tracer()
    tr.install()
    try:
        for (mod, name), original in originals.items():
            assert getattr(sys.modules[mod], name) is not original, f"{mod}.{name} not wrapped"
        est = spectral.dirichlet_lambda1(make_euclidean(3), 1.0, 50)
    finally:
        tr.uninstall()
    for (mod, name), original in originals.items():
        assert getattr(sys.modules[mod], name) is original, f"{mod}.{name} not restored"
    assert tr.calls["spectral.dirichlet_lambda1"] == 1
    assert tr.calls["operators.laplacian_tridiag"] == 1
    assert tr.calls["spectral.banded"] == est.iterations
