import random

import pytest

from refdep.choices import warp_over
from refdep.engine import ReferenceOrder
from refdep.exceptions import AxiomFails, NotSubsetClosed, UnionUnobserved, ValidationError
from refdep.ordu import (
    OrduParams,
    _rationalized_by_single_ranking,
    build_ordu,
    check_subset_closed,
    evaluate_ordu,
    prediction_set,
    union_anchor_condition,
    simulate_ordu,
    verify_ordu,
)
from refdep.rivals import load_fixture

from helpers import (
    all_menus,
    generic_dataset,
    random_ordu_params,
    rationalizable_by_weak_order,
    weak_orders,
)


def test_build_on_compliance_round_trips():
    ds = load_fixture("compliance_2_1")
    params = build_ordu(ds)
    assert params.order.ranking[0] == "a"
    assert simulate_ordu(params, ds.observations.keys()).same_observations(ds)


def test_build_fails_on_the_violation_table():
    with pytest.raises(AxiomFails):
        build_ordu(load_fixture("violation_2_1"))


def test_binary_cycle_with_a_consistent_tripleton_builds():
    ds = generic_dataset([
        ("ab", "a"), ("bc", "b"), ("ca", "c"), ("abc", "c"),
    ])
    params = build_ordu(ds)
    assert verify_ordu(params, ds) == []


def test_prediction_set_contains_its_anchor():
    ds = load_fixture("compliance_2_1")
    params = build_ordu(ds)
    for x in ds.universe:
        assert x in prediction_set(ds, params.order, x)


def test_evaluate_singleton_returns_itself():
    params = build_ordu(load_fixture("compliance_2_1"))
    assert evaluate_ordu(params, frozenset("c")) == frozenset("c")


def test_evaluate_reproduces_the_bcd_tie():
    params = build_ordu(load_fixture("compliance_2_1"))
    assert evaluate_ordu(params, frozenset("bcd")) == frozenset("bc")


def test_two_reference_params_produce_a_warp_violation():
    params = OrduParams.build(
        ReferenceOrder(("r", "x", "y")),
        {"r": {"r": 1, "x": 3, "y": 2},
         "x": {"r": 0, "x": 1, "y": 2},
         "y": {"r": 0, "x": 1, "y": 2}})
    big = frozenset(("r", "x", "y"))
    small = frozenset(("x", "y"))
    assert evaluate_ordu(params, big) == frozenset("x")
    assert evaluate_ordu(params, small) == frozenset("y")
    ds = simulate_ordu(params, [big, small])
    assert warp_over(ds, ds.menus()) != []


def test_simulate_full_power_set_has_fifteen_menus():
    params = random_ordu_params(random.Random(1), ids=("a", "b", "c", "d"))
    menus = all_menus("abcd", 1, 4)
    assert len(menus) == 15
    ds = simulate_ordu(params, menus)
    assert len(ds.observations) == 15


def test_constant_utility_simulation_satisfies_global_warp():
    table = {"a": 3, "b": 2, "c": 1}
    params = OrduParams.build(
        ReferenceOrder(("a", "b", "c")), {x: table for x in table})
    ds = simulate_ordu(params, all_menus("abc", 2, 3))
    assert warp_over(ds, ds.menus()) == []


def test_verify_flags_a_perturbed_choice():
    ds = load_fixture("compliance_2_1")
    params = build_ordu(ds)
    rows = [(m, ds.observations[m]) for m in ds.menus()]
    menu, old_choice = rows[0]
    flipped = frozenset([next(x for x in sorted(menu) if x not in old_choice)])
    rows[0] = (menu, flipped)
    perturbed = generic_dataset(rows)
    assert verify_ordu(params, ds) == []
    assert len(verify_ordu(params, perturbed)) == 1


def test_verify_empty_dataset_passes():
    params = build_ordu(load_fixture("compliance_2_1"))
    empty = load_fixture("compliance_2_1").restrict([])
    assert verify_ordu(params, empty) == []


def test_subset_closure_is_required():
    ds = generic_dataset([("abc", "a"), ("ab", "a")])
    with pytest.raises(NotSubsetClosed):
        check_subset_closed(ds)
    with pytest.raises(NotSubsetClosed):
        build_ordu(ds)


def test_reference_persistence_in_simulated_data():
    rng = random.Random(11)
    for _ in range(30):
        params = random_ordu_params(rng)
        ds = simulate_ordu(params, all_menus(params.order.ranking, 2, 5))
        for small, big in ds.nested_pairs():
            if params.order.argmax(big) in small:
                kept = ds.observations[big] & small
                if kept:
                    assert kept == ds.observations[small]


def test_warp_violations_point_at_a_removed_reference():
    rng = random.Random(13)
    for _ in range(30):
        params = random_ordu_params(rng)
        ds = simulate_ordu(params, all_menus(params.order.ranking, 2, 5))
        for witness in warp_over(ds, ds.menus()):
            big, small = witness.menus
            assert params.order.argmax(big) not in small


def test_weak_order_counts():
    assert len(list(weak_orders(["a", "b", "c"]))) == 13
    assert len(list(weak_orders(["a", "b", "c", "d"]))) == 75


def _random_family(rng):
    """Up to six distinct menus on up to five alternatives; half the
    families take their choices from one random weak order."""
    ids = "abcde"[:rng.randint(1, 5)]
    rank = {x: rng.randint(0, 2) for x in ids}
    menus = {frozenset(rng.sample(ids, rng.randint(1, len(ids))))
             for _ in range(rng.randint(1, 6))}
    rows = []
    for menu in sorted(menus, key=sorted):
        if rng.random() < 0.5:
            best = max(rank[x] for x in menu)
            choice = [x for x in menu if rank[x] == best]
        else:
            choice = rng.sample(sorted(menu), rng.randint(1, len(menu)))
        rows.append((menu, choice))
    return generic_dataset(rows)


def test_congruence_agrees_with_the_weak_order_oracle():
    rng = random.Random(8)
    verdicts = []
    for _ in range(2500):
        ds = _random_family(rng)
        family = list(ds.observations)
        verdict = _rationalized_by_single_ranking(ds, family)
        assert verdict == rationalizable_by_weak_order(ds, family), sorted(
            (sorted(m), sorted(c)) for m, c in ds.observations.items())
        verdicts.append(verdict)
    assert min(verdicts.count(True), verdicts.count(False)) > 500


def test_union_anchor_fails_on_the_decoy_fixture():
    ds = load_fixture("ok2015_decoy")
    assert union_anchor_condition(ds, [frozenset("abd"), frozenset("acd")]) is False


def test_union_anchor_fails_on_the_equilibrium_fixture():
    ds = load_fixture("pe_table")
    assert union_anchor_condition(ds, [frozenset("abc"), frozenset("ad")]) is False


def test_union_anchor_passes_every_decomposition_of_warp_satisfying_data():
    table = {"a": 3, "b": 2, "c": 1, "d": 0}
    params = OrduParams.build(
        ReferenceOrder(("a", "b", "c", "d")), {x: table for x in table})
    ds = simulate_ordu(params, all_menus("abcd", 2, 4))
    from itertools import combinations
    proper = [m for m in ds.menus() if len(m) < 4]
    for parts in combinations(proper, 2):
        union = parts[0] | parts[1]
        if union in ds.observations:
            assert union_anchor_condition(ds, parts) is True


def test_union_anchor_requires_an_observed_union():
    ds = load_fixture("compliance_2_1")
    with pytest.raises(UnionUnobserved):
        union_anchor_condition(
            load_fixture("binary_cycle"), [frozenset("ab"), frozenset("bc")])
    assert union_anchor_condition(
        ds, [frozenset("ab"), frozenset("cd")]) in (True, False)


def test_from_json_rejects_ids_that_are_not_strings():
    doc = random_ordu_params(random.Random(0), ids=("a", "b", "c")).to_json()
    assert OrduParams.from_json(doc).to_json() == doc
    table = doc["utilities"]["a"]
    for bad in ({**doc, "order": ["a", "b", None]}, {**doc, "order": "abc"},
                {**doc, "utilities": {**doc["utilities"], 1: table}},
                {**doc, "utilities": {**doc["utilities"], "a": {**table, True: "0"}}}):
        with pytest.raises(ValidationError):
            OrduParams.from_json(bad)
