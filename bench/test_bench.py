"""Self-tests of the benchmark: reference evaluators on hand-checked
fixtures, generator determinism, span accounting and one short run.

    python3 -m pytest bench/test_bench.py
"""

import json
import random
from fractions import Fraction as F

import pytest

import gen
import hostspeed
import oracle
import run
import tracing
import workloads

M = frozenset


# -- reference evaluators on the paper's fixtures ------------------------------

ALLAIS_PRIZES = (F(0), F(3000), F(4000))
ALLAIS = {"p1": (F(0), F(1), F(0)), "p2": (F(1, 5), F(0), F(4, 5)),
          "q1": (F(3, 4), F(1, 4), F(0)), "q2": (F(4, 5), F(0), F(1, 5))}


def test_allais_common_ratio_needs_two_utilities():
    ranking = ["p1", "q1", "p2", "q2"]
    safe, risky = (F(0), F(17, 20), F(1)), (F(0), F(7, 10), F(1))
    utilities = {"p1": safe, "q1": risky, "p2": risky, "q2": risky}
    assert oracle.choose_areu(ranking, ALLAIS, utilities, M({"p1", "p2"})) == {"p1"}
    assert oracle.choose_areu(ranking, ALLAIS, utilities, M({"q1", "q2"})) == {"q2"}
    # one utility cannot give both: u(3000) > 4/5 makes q1 beat q2
    shared = {x: safe for x in ranking}
    assert oracle.choose_areu(ranking, ALLAIS, shared, M({"q1", "q2"})) == {"q1"}
    tie = {x: (F(0), F(4, 5), F(1)) for x in ranking}
    assert oracle.choose_areu(ranking, ALLAIS, tie, M({"p1", "p2"})) == {"p1", "p2"}
    assert oracle.choose_areu(ranking, ALLAIS, tie, M({"q1", "q2"})) == {"q1", "q2"}


def test_allais_risk_order():
    # p2 and q2 are extreme spreads of p1 and q1; nothing spreads over p1
    edges = oracle.safety_edges(ALLAIS_PRIZES, ALLAIS)
    assert ("p1", "p2") in edges and ("q1", "q2") in edges
    assert not any(below == "p1" for _, below in edges)
    assert oracle.topological(sorted(ALLAIS), edges)[0] == "p1"
    assert oracle.rho_vector((F(0), F(17, 20), F(1))) == (F(17, 20),)


PAYMENTS = {"a18_0": (F(18), F(0)), "a20_1": (F(20), F(1)), "a15_0": (F(15), F(0)),
            "a18_3": (F(18), F(3)), "a20_4": (F(20), F(4))}
PRESENT_BIAS = {M({"a18_0", "a20_1"}): {"a18_0"}, M({"a18_3", "a20_4"}): {"a20_4"},
                M({"a15_0", "a18_3", "a20_4"}): {"a18_3"}}


def test_present_bias_fixture():
    log_utility = {F(15): F(-3), F(18): F(1), F(20): F(3, 2)}
    biased = {F(0): F(-1), F(3): F(-1, 4)}
    for menu, choice in PRESENT_BIAS.items():
        assert oracle.choose_pbdu(log_utility, biased, PAYMENTS, menu) == choice
    # one discount cannot reverse the delayed pair
    assert oracle.choose_pbdu(log_utility, {F(0): F(-1)}, PAYMENTS,
                              M({"a18_3", "a20_4"})) == {"a18_3"}
    # a reference between fitted times takes the value below it
    assert oracle.choose_pbdu(log_utility, {F(0): F(-1), F(5): F(0)}, PAYMENTS,
                              M({"a18_3", "a20_4"})) == {"a18_3"}
    # the reference moves from time 0 to time 3, which WARP sees
    assert oracle.warp_pairs(PRESENT_BIAS) == {(M({"a15_0", "a18_3", "a20_4"}),
                                                M({"a18_3", "a20_4"}))}


SPLITS = {"s82": (F(8), F(2)), "s73": (F(7), F(3)), "s55": (F(5), F(5))}
DICTATOR = {M({"s82", "s73"}): {"s82"}, M({"s82", "s73", "s55"}): {"s73"}}


def test_dictator_fixture():
    assert [oracle.gini(*SPLITS[x]) for x in ("s82", "s73", "s55")] == \
        [F(3, 10), F(1, 5), F(0)]
    tables = {F(0): {F(2): F(0), F(3): F(2), F(5): F(3)},
              F(1, 5): {F(2): F(0), F(3): F(1, 2), F(5): F(1)}}
    for menu, choice in DICTATOR.items():
        assert oracle.choose_fspu(tables, SPLITS, menu) == choice
    assert oracle.warp_pairs(DICTATOR) == {(M({"s82", "s73", "s55"}), M({"s82", "s73"}))}


def test_ordu_top_reference_decides():
    tables = {"a": {"a": F(0), "b": F(1), "c": F(2)}, "b": {"a": F(0), "b": F(2), "c": F(1)},
              "c": {"a": F(0), "b": F(0), "c": F(0)}}
    assert oracle.choose_ordu(["a", "b", "c"], tables, M("abc")) == {"c"}
    assert oracle.choose_ordu(["a", "b", "c"], tables, M("bc")) == {"b"}
    assert oracle.choose_ordu(["a", "b", "c"], tables, M("c")) == {"c"}


# -- generators ---------------------------------------------------------------------

GENERATORS = {
    "ordu": lambda rng, d: gen.ordu(rng, 5, d),
    "areu_random": lambda rng, d: gen.areu_random(rng, 8, d, {2: 10, 3: 10, 4: 10}),
    "areu_probe": gen.areu_probe,
    "pbdu_grid": lambda rng, d: gen.pbdu_grid(rng, d, {2: 5, 3: 5, 4: 5}),
    "pbdu_probe": gen.pbdu_probe,
    "fspu_grid": lambda rng, d: gen.fspu_grid(rng, d, {2: 10, 3: 10}),
    "fspu_probe": gen.fspu_probe,
}


def _bytes(inst):
    return json.dumps([inst.params, inst.dataset, inst.menus_doc], sort_keys=True).encode()


def test_generators_are_deterministic():
    for name, make in GENERATORS.items():
        for distinct in (False, True):
            first = _bytes(make(random.Random(7), distinct))
            assert first == _bytes(make(random.Random(7), distinct)), name
            assert first != _bytes(make(random.Random(8), distinct)), name


def test_workload_inputs_are_deterministic(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        files = []
        for copy in ("a", "b", "c"):
            work = tmp_path / f"{name}-{copy}"
            work.mkdir()
            build(11 if copy != "c" else 12, str(work))
            files.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
        assert files[0] == files[1], name
        assert files[0] != files[2], name


def test_probe_generators_link_warp_to_distinct_parameters():
    rng = random.Random(3)
    for make in (GENERATORS["ordu"], gen.areu_probe, gen.pbdu_probe, gen.fspu_probe):
        for distinct in (False, True, False, True):
            inst = make(rng, distinct)
            assert bool(oracle.warp_pairs(inst.observations)) == distinct


# -- measurement machinery -------------------------------------------------------


def test_self_time_excludes_child_spans(monkeypatch):
    # outer starts at 0, inner runs from 1 to 3, outer ends at 10
    monkeypatch.setattr(tracing.time, "perf_counter", iter([0.0, 1.0, 3.0, 10.0]).__next__)
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    outer()
    assert tracer.take() == {"outer": 8.0, "inner": 2.0}
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 1}
    assert tracer.take() == {}


def test_clock_scales_by_bracketing_kernels(monkeypatch):
    monkeypatch.setattr(hostspeed, "timed_kernel", iter([0.1, 0.05]).__next__)
    clock = hostspeed.Clock(stretch_s=1.0)
    seen = []
    clock.add(0.4, lambda raw, f: seen.append(raw * f))
    assert seen == []
    clock.close()
    assert seen == [pytest.approx(0.4 * hostspeed.NOMINAL_S / 0.075)]


def _last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_one_round_of_study_small(capsys):
    """End to end, untraced and traced; the metric names match BENCHMARK.json."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "study_small", "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = _last_json_line(capsys)
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]
