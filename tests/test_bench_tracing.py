"""The benchmark's trace hooks patch names that refdep must keep.

``bench/tracing.py`` wraps public functions and methods where their
callers look them up; a refactor that drops or renames one of them
breaks ``install()``.  The full benchmark self-tests live in
``bench/test_bench.py``.
"""

import importlib.util
from pathlib import Path

from refdep import choices, cli, engine, feasibility, ordu, risk, serialize, social, timepref

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    owners = (choices, cli, engine, feasibility, ordu, risk, serialize, social, timepref,
              choices.FiniteProperty, engine.PsiMap, ordu.OrduParams, risk.AreuParams,
              timepref.PbduParams, social.FspuParams)
    out = {(owner.__name__, name): value
           for owner in owners for name, value in vars(owner).items()}
    out.update((("_FITTERS", model), fitter) for model, (fitter, _) in cli._FITTERS.items())
    return out


def test_install_wraps_the_layers_and_remove_restores_every_original():
    before = _bindings()
    tracer = _load_tracing().install()
    try:
        during = _bindings()
    finally:
        tracer.remove()
    after = _bindings()
    changed = {key for key, value in before.items() if during[key] is not value}
    assert {("refdep.cli", "main"), ("refdep.risk", "solve_linear_feasibility"),
            ("refdep.cli", "simulate_areu"), ("refdep.cli", "verify_pbdu"),
            ("_FITTERS", "areu"), ("PsiMap", "of"),
            ("refdep.feasibility", "_simplex_maximize")} <= changed
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
