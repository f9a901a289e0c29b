import random

import pytest

from refdep import ordu
from refdep.choices import warp_over
from refdep.engine import ReferenceOrder
from refdep.exceptions import (
    AxiomFails,
    InfeasibleFit,
    UnionUnobserved,
    UnknownAlternative,
    ValidationError,
)
from refdep.ordu import (
    OrduParams,
    _rationalized_by_single_ranking,
    build_ordu,
    union_anchor_condition,
    simulate_ordu,
    verify_ordu,
)
from refdep.rivals import load_fixture

from helpers import (
    all_menus,
    generic_dataset,
    nested_pairs_by_scan,
    ordu_bruteforce,
    ordu_by_prediction_sets,
    ordu_utility,
    perturbed_ordu_data,
    random_ordu_params,
    rationalizable_by_weak_order,
    restrict,
    sparse_ordu_data,
    subset_closed_by_maximal_menus,
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


def test_each_reference_scores_itself_above_the_sentinel():
    ds = load_fixture("compliance_2_1")
    params = build_ordu(ds)
    for x in ds.universe:
        assert ordu_utility(params, x)[x] > 0


def _fit_or_infeasible(fit, dataset):
    try:
        return fit(dataset)
    except InfeasibleFit:
        return None


@pytest.mark.parametrize("ids, seeds, max_size", [
    ("abcde", range(300), None), ("abcdefgh", range(30), None), ("abcde", range(300), 3)],
    ids=["five-power-set", "eight-power-set", "five-size-2-3"])
def test_build_returns_the_prediction_set_params(ids, seeds, max_size):
    infeasible = 0
    for seed in seeds:
        params = random_ordu_params(random.Random(seed), ids=tuple(ids))
        dataset = simulate_ordu(params, all_menus(ids, 2, max_size))
        fitted = _fit_or_infeasible(build_ordu, dataset)
        assert fitted == _fit_or_infeasible(ordu_by_prediction_sets, dataset), seed
        infeasible += fitted is None
    assert infeasible == 0


def test_a_stuck_pool_is_named_with_a_conflict():
    dataset = perturbed_ordu_data(19)
    with pytest.raises(InfeasibleFit) as exc:
        build_ordu(dataset)
    assert exc.value.detail == (
        "no member of ['a', 'c', 'd', 'e'] tops a congruent class: the menus "
        "with reference 'a' reveal 'd' weakly above 'a', "
        "but ['a', 'c', 'd'] chooses 'a' and not 'd'")
    pool = frozenset("acde")
    for x in pool:
        family = [menu for menu in dataset.observations if x in menu and menu <= pool]
        assert not _rationalized_by_single_ranking(dataset, family), x
    assert ordu_bruteforce(dataset) is None


def test_the_peel_skips_the_members_whose_class_holds_a_warp_pair(monkeypatch):
    """On clean data of size-2-3 menus each step of the peel makes at most
    one congruence test beyond the member it places (it made up to 11 per
    step here when it tested every member in id order), and the skip is
    exact: without WARP's blocked masks the peel fits the same params."""
    ids = [f"x{i:02d}" for i in range(16)]
    dataset = simulate_ordu(random_ordu_params(random.Random(5), ids), all_menus(ids, 2, 3))
    tests = [0]  # congruence tests per step; a step ends when its member is ranked
    incongruence, layers = ordu._incongruence, ordu._layers

    def counted(*args):
        tests[-1] += 1
        return incongruence(*args)

    def placed(*args):
        tests.append(0)
        return layers(*args)

    monkeypatch.setattr(ordu, "_incongruence", counted)
    monkeypatch.setattr(ordu, "_layers", placed)
    fitted = build_ordu(dataset)
    steps = tests[:-1]
    assert len(steps) == len(ids) and max(steps) <= 2 and sum(steps) > len(ids), steps
    monkeypatch.setattr(ordu, "_blocked", lambda dataset, prop: {})
    assert build_ordu(dataset) == fitted


def test_fits_exactly_when_the_search_over_orders_finds_one():
    """On perturbed data that passes the battery, the fit's order is the
    first valid order in id order, and InfeasibleFit means there is none."""
    outcomes = []
    for seed in range(300):
        dataset = perturbed_ordu_data(seed)
        try:
            fitted = build_ordu(dataset).order.ranking
        except AxiomFails:
            continue
        except InfeasibleFit:
            fitted = None
        assert fitted == ordu_bruteforce(dataset), seed
        outcomes.append(fitted is None)
    assert min(outcomes.count(True), outcomes.count(False)) >= 10


def test_fits_exactly_when_the_search_over_orders_finds_one_on_any_family():
    """On sampled menu families, mostly not subset-closed, the fit's order
    is the first valid order in id order and reproduces the data, and
    AxiomFails or InfeasibleFit means there is none."""
    outcomes = []
    for seed in range(600):
        dataset = sparse_ordu_data(seed)
        try:
            params = build_ordu(dataset)
        except (AxiomFails, InfeasibleFit) as exc:
            assert ordu_bruteforce(dataset) is None, seed
            outcome = type(exc).__name__
        else:
            assert params.order.ranking == ordu_bruteforce(dataset), seed
            assert verify_ordu(params, dataset) == [], seed
            outcome = "fit"
        if not subset_closed_by_maximal_menus(dataset):
            outcomes.append(outcome)
    assert len(outcomes) > 300
    assert set(outcomes) == {"fit", "AxiomFails", "InfeasibleFit"}


def test_evaluate_singleton_returns_itself():
    params = build_ordu(load_fixture("compliance_2_1"))
    menu = frozenset("c")
    assert simulate_ordu(params, [menu]).observations[menu] == menu


def test_evaluate_reproduces_the_bcd_tie():
    params = build_ordu(load_fixture("compliance_2_1"))
    menu = frozenset("bcd")
    assert simulate_ordu(params, [menu]).observations[menu] == frozenset("bc")


def test_two_reference_params_produce_a_warp_violation():
    params = OrduParams.build(
        ReferenceOrder(("r", "x", "y")),
        {"r": {"r": 1, "x": 3, "y": 2},
         "x": {"r": 0, "x": 1, "y": 2},
         "y": {"r": 0, "x": 1, "y": 2}})
    big = frozenset(("r", "x", "y"))
    small = frozenset(("x", "y"))
    ds = simulate_ordu(params, [big, small])
    assert ds.observations[big] == frozenset("x")
    assert ds.observations[small] == frozenset("y")
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
    empty = restrict(load_fixture("compliance_2_1"), [])
    assert verify_ordu(params, empty) == []


def test_data_that_are_not_subset_closed_fit():
    ds = generic_dataset([("abc", "a"), ("ab", "a")])
    assert not subset_closed_by_maximal_menus(ds)
    assert verify_ordu(build_ordu(ds), ds) == []


def test_reference_persistence_in_simulated_data():
    rng = random.Random(11)
    for _ in range(30):
        params = random_ordu_params(rng)
        ds = simulate_ordu(params, all_menus(params.order.ranking, 2, 5))
        for small, big in nested_pairs_by_scan(ds):
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


def test_one_rank_map_serves_the_top_lookup_and_the_coverage_test():
    params = random_ordu_params(random.Random(0), ids=("a", "b", "c"))
    order = params.order
    assert order.ranks == {alt: k for k, alt in enumerate(order.ranking)}
    assert order.argmax(set(order.ranking)) == order.ranking[0]
    same = ReferenceOrder(order.ranking)
    assert order == same and hash(order) == hash(same)
    with pytest.raises(UnknownAlternative, match=r"\['y', 'z'\] not covered by the order"):
        simulate_ordu(params, [{"a", "z", "y"}])
    with pytest.raises(ValueError, match="ranking has duplicates"):
        ReferenceOrder(("a", "b", "a"))
