import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from refdep.choices import Alternative, DATED_PAYMENT, PaymentPayload, validate_dataset, warp_over
from refdep.exceptions import AxiomFails, InfeasibleFit, ValidationError
from refdep.timepref import (
    PbduParams,
    battery,
    check_outcome_monotonicity_impatience,
    check_present_bias,
    check_time_reference_dependence,
    earliest_payments,
    evaluate_pbdu,
    fit_pbdu,
    pairwise_anchored_equivalence,
    linkage_report_time,
    simulate_pbdu,
    single_switching_check,
    stationarity_over,
    verify_pbdu,
)

from helpers import (
    all_menus,
    integer_pbdu_data,
    pay,
    payment_dataset,
    pbdu_data,
    pbdu_instance,
    perturbed,
    present_bias_delays_by_pairs,
    subset_closed_by_maximal_menus,
)


def fixture_dataset():
    payments = {"a18_0": pay(18, 0), "a20_1": pay(20, 1),
                "a15_0": pay(15, 0), "a18_3": pay(18, 3), "a20_4": pay(20, 4)}
    return payment_dataset(payments, [
        (("a18_0", "a20_1"), ("a18_0",)),
        (("a18_3", "a20_4"), ("a20_4",)),
        (("a15_0", "a18_3", "a20_4"), ("a18_3",)),
    ])


def test_earliest_payments_examples():
    payments = {"x": pay(18, 3), "y": pay(20, 4), "z": pay(12, 3)}
    ds = payment_dataset(payments, [(("x", "y", "z"), ("x",)), (("x",), ("x",))])
    assert earliest_payments(ds, frozenset(("x", "y"))) == frozenset(("x",))
    assert earliest_payments(ds, frozenset(("x", "z"))) == frozenset(("x", "z"))
    assert earliest_payments(ds, frozenset(("y",))) == frozenset(("y",))


def test_stationarity_flags_the_present_bias_pair():
    ds = fixture_dataset()
    witnesses = stationarity_over(ds, ds.menus())
    assert len(witnesses) == 1
    assert {frozenset(m) for m in witnesses[0].menus} == {
        frozenset(("a18_0", "a20_1")), frozenset(("a18_3", "a20_4"))}
    assert "3" in witnesses[0].narrative


def test_stationarity_clean_on_exponential_data():
    params = PbduParams(((F(15), F(0)), (F(18), F(1)), (F(20), F(2))),
                        ((F(0), F(-1, 2)),))
    payments = {f"p{x}_{t}": pay(x, t)
                for x in (15, 18, 20) for t in (0, 1, 3)}
    ds = simulate_pbdu(params, [  # single discount rate everywhere
        type("A", (), {"id": k, "payload": v})() for k, v in payments.items()
    ], all_menus(payments, 2, 3))
    assert stationarity_over(ds, ds.menus()) == []
    assert warp_over(ds, ds.menus()) == []


def test_stationarity_single_menu_family_is_vacuous():
    ds = fixture_dataset()
    assert stationarity_over(ds, [frozenset(("a18_0", "a20_1"))]) == []


def test_time_reference_dependence_passes_on_the_fixture():
    assert check_time_reference_dependence(fixture_dataset()) == []


def test_time_reference_dependence_fails_when_sharing_the_earliest():
    payments = {"e": pay(15, 0), "x": pay(18, 3), "y": pay(20, 4)}
    ds = payment_dataset(payments, [
        (("e", "x", "y"), ("x",)),
        (("e", "x"), ("e",)),
    ])
    witnesses = check_time_reference_dependence(ds)
    assert witnesses and witnesses[0].kind == "WARP"


def test_time_reference_dependence_singletons_pass():
    payments = {"x": pay(18, 3)}
    ds = payment_dataset(payments, [(("x",), ("x",))])
    assert check_time_reference_dependence(ds) == []


def test_equivalence_agrees_on_power_set_data():
    rng = random.Random(0)
    for seed in range(100):
        members = {}
        for i in range(3):
            members[f"m{i}"] = pay(rng.randint(5, 20), rng.randint(0, 6))
        menus = all_menus(members, 1, 3)
        rows = []
        for menu in menus:
            pool = sorted(menu)
            mask = rng.randint(1, 2 ** len(pool) - 1)
            rows.append((menu, {m for i, m in enumerate(pool) if mask >> i & 1}))
        ds = payment_dataset(members, rows)
        assert pairwise_anchored_equivalence(ds).status == "agree"


def test_equivalence_not_applicable_without_subset_closure():
    assert pairwise_anchored_equivalence(fixture_dataset()).status == "not_applicable"


def _menu_family(rng, ids):
    """Random menus over ``ids``; on about half the draws closed downward
    first, and on half of those with one menu dropped again."""
    menus = all_menus(ids, 1)
    family = {m for m in menus if rng.random() < 0.3}
    if rng.random() < 0.5:
        family |= {m for m in menus if len(m) > 1 and any(m < big for big in family)}
        if family and rng.random() < 0.5:
            family.discard(rng.choice(sorted(family, key=sorted)))
    return sorted(family, key=sorted)


def test_equivalence_is_applicable_exactly_on_subset_closed_data():
    """The one-member-fewer test agrees with the enumeration of every
    subset of each maximal menu."""
    rng = random.Random(5)
    closed = 0
    for _ in range(2000):
        members = {f"m{i}": pay(rng.randint(5, 20), rng.randint(0, 6))
                   for i in range(rng.randint(2, 5))}
        rows = [(menu, rng.sample(sorted(menu), rng.randint(1, len(menu))))
                for menu in _menu_family(rng, members)]
        ds = payment_dataset(members, rows)
        applicable = pairwise_anchored_equivalence(ds).status != "not_applicable"
        assert applicable == subset_closed_by_maximal_menus(ds), rows
        closed += applicable
    assert 500 < closed < 1500


def test_present_bias_flags_a_back_switch():
    payments = {"x0": pay(18, 0), "y1": pay(20, 1),
                "x3": pay(18, 3), "y4": pay(20, 4)}
    ds = payment_dataset(payments, [
        (("x0", "y1"), ("y1",)),   # patient now
        (("x3", "y4"), ("x3",)),   # impatient later: forbidden direction
    ])
    witnesses = check_present_bias(ds)
    assert witnesses and witnesses[0].kind == "PresentBias"


def test_present_bias_passes_on_the_fixture_and_on_simulations():
    assert check_present_bias(fixture_dataset()) == []
    rng = random.Random(17)
    for _ in range(25):
        params, payments, menus = pbdu_instance(rng, distinct=rng.random() < 0.5)
        alts = [type("A", (), {"id": k, "payload": v})()
                for k, v in payments.items()]
        ds = simulate_pbdu(params, alts, menus)
        assert check_present_bias(ds) == []


def _all_doubletons(rng):
    """Every doubleton of five to seven payments drawn with repeats from a
    small amount-by-time grid, each choosing one member or both."""
    cells = [(rng.randint(1, 3), rng.randint(0, 3)) for _ in range(rng.randint(5, 7))]
    payments = {f"p{i}": pay(a, t) for i, (a, t) in enumerate(cells)}
    return payment_dataset(payments, [
        (menu, rng.choice((menu[:1], menu[1:], menu)))
        for menu in combinations(sorted(payments), 2)])


def test_present_bias_delays_match_the_doubleton_pairs():
    rng = random.Random(23)
    draws = (pbdu_data, integer_pbdu_data, _all_doubletons,
             lambda rng: perturbed(rng, pbdu_data(rng)),
             lambda rng: perturbed(rng, integer_pbdu_data(rng)))
    flagged = 0
    for _ in range(650):
        for draw in draws:
            ds = draw(rng)
            delays = [w for w in check_present_bias(ds) if len(w.menus[0]) == 2]
            assert delays == present_bias_delays_by_pairs(ds)
            flagged += bool(delays)
    assert flagged > 100


def test_present_bias_scaling_clause_fires():
    # all three indifferent originally; scaled menu keeps the outer two
    # but drops the middle
    payments = {"a": pay(10, 0), "b": pay(12, 2), "c": pay(15, 4),
                "a2": pay(10, 1), "b2": pay(12, 2), "c2": pay(15, 3)}
    # a2/b2/c2 times are 1, 2, 3 = 0.5 * (0,2,4) + 1
    # reuse b for b2 (same payload) to keep ids distinct but payloads exact
    payments = {"a": pay(10, 0), "b": pay(12, 2), "c": pay(15, 4),
                "a2": pay(10, 1), "c2": pay(15, 3)}
    ds = payment_dataset(payments, [
        (("a", "b", "c"), ("a", "b", "c")),
        (("a2", "b", "c2"), ("a2", "c2")),
    ])
    witnesses = check_present_bias(ds)
    assert witnesses and "rescaling" in witnesses[0].narrative


def test_outcome_monotonicity_and_impatience():
    payments = {"hi": pay(20, 1), "lo": pay(18, 1),
                "now": pay(18, 0), "late": pay(18, 2)}
    good = payment_dataset(payments, [(("hi", "lo"), ("hi",)),
                                      (("now", "late"), ("now",))])
    assert check_outcome_monotonicity_impatience(good) == []
    bad = payment_dataset(payments, [(("now", "late"), ("late",))])
    witnesses = check_outcome_monotonicity_impatience(bad)
    assert witnesses and witnesses[0].kind == "Impatience"


def test_fit_on_the_fixture_recovers_present_bias():
    ds = fixture_dataset()
    params = fit_pbdu(ds)
    assert params.discount_log(F(0)) < params.discount_log(F(3)) < 0
    assert verify_pbdu(params, ds) == []


def test_fit_exponential_data_keeps_discounts_equal():
    params = PbduParams(((F(15), F(0)), (F(18), F(1)), (F(20), F(2))),
                        ((F(0), F(-1, 2)),))
    payments = {f"p{x}_{t}": pay(x, t) for x in (15, 18) for t in (0, 2, 5)}
    alts = [type("A", (), {"id": k, "payload": v})() for k, v in payments.items()]
    ds = simulate_pbdu(params, alts, all_menus(payments, 2, 3))
    fitted = fit_pbdu(ds)
    discounts = {v for _, v in fitted.log_discount}
    assert len(discounts) == 1
    assert verify_pbdu(fitted, ds) == []


def test_fit_rejects_impatience_violations():
    payments = {"now": pay(18, 0), "late": pay(18, 2)}
    ds = payment_dataset(payments, [(("now", "late"), ("late",))])
    with pytest.raises(AxiomFails):
        fit_pbdu(ds)


def test_simulate_reproduces_the_three_fixture_choices():
    params = PbduParams(
        ((F(15), F(-3)), (F(18), F(1)), (F(20), F(3, 2))),
        ((F(0), F(-1)), (F(3), F(-1, 4))))
    ds = fixture_dataset()
    assert verify_pbdu(params, ds) == []


def test_simulate_singletons_choose_themselves():
    params = PbduParams(((F(18), F(0)),), ((F(0), F(-1)),))
    menu = {"only": pay(18, 5)}
    assert evaluate_pbdu(params, menu) == frozenset(("only",))


def test_single_switching_on_fitted_fixture_params():
    params = fit_pbdu(fixture_dataset())
    assert single_switching_check(params, pay(18, 0), pay(20, 1),
                                  range(0, 11)) == []


def test_single_switching_zero_switches_with_equal_deltas():
    params = PbduParams(((F(18), F(0)), (F(20), F(1))), ((F(0), F(-2)),))
    assert single_switching_check(params, pay(18, 0), pay(20, 1),
                                  range(0, 11)) == []


def test_fit_of_data_passing_the_battery_can_be_infeasible():
    """The battery is necessary, not sufficient: this perturbed simulation
    passes every PBDU axiom check, and neither LP has a solution."""
    rng = random.Random(779)
    ds = perturbed(rng, pbdu_data(rng))
    assert not any(witnesses for _, _, witnesses in battery(ds))
    with pytest.raises(InfeasibleFit):
        fit_pbdu(ds)


def test_discount_log_below_the_grid_takes_the_earliest_fitted_time():
    params = PbduParams(((F(1), F(0)), (F(2), F(1))), ((F(2), F(-3)), (F(5), F(-1))))
    assert [params.discount_log(t) for t in (F(0), F(1, 2), F(2), F(4), F(5), F(9))] \
        == [-3, -3, -3, -3, -1, -1]
    assert evaluate_pbdu(params, {"x": pay(1, 1), "y": pay(2, 2)}) == {"x"}


def test_decreasing_discounts_rejected_at_construction():
    with pytest.raises(ValidationError):
        PbduParams(((F(18), F(0)), (F(20), F(1))),
                   ((F(0), F(-1)), (F(3), F(-2))))


@pytest.mark.parametrize("amount, time", [(-10, -3), (0, 1), (10, -3)])
def test_payment_payload_needs_positive_amount_and_nonnegative_time(amount, time):
    with pytest.raises(ValidationError, match="payments need amount > 0 and time >= 0"):
        validate_dataset(DATED_PAYMENT, [Alternative("a", PaymentPayload(F(amount), F(time))),
                                         Alternative("b", pay(20, 4))],
                         [({"a", "b"}, {"a"})])
    assert PaymentPayload(F(1, 2), F(0)).time == 0


def test_linkage_on_fixture_fails_both():
    report = linkage_report_time(fixture_dataset())
    assert report["warp"] != [] and report["stationarity"] != []


def test_delta_monotonicity_of_fitted_params():
    rng = random.Random(23)
    for _ in range(10):
        params, payments, menus = pbdu_instance(rng, distinct=True)
        alts = [type("A", (), {"id": k, "payload": v})()
                for k, v in payments.items()]
        ds = simulate_pbdu(params, alts, menus)
        fitted = fit_pbdu(ds)
        discounts = [v for _, v in fitted.log_discount]
        assert all(a <= b for a, b in zip(discounts, discounts[1:]))
        assert verify_pbdu(fitted, ds) == []
