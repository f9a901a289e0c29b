"""The models' choice rules against the per-menu evaluators they replaced.

Each rule reads its params once and scores each (reference, alternative)
pair once, on integers; ``helpers.evaluate_*_by_menu`` score every menu
from scratch in Fractions.  Both must choose the same sets, raise the
same exception with the same message on the same menu, and raise nothing
for an offender that no menu holds.  The rules are all built by
``choices.reference_rule``, which is also tested on its own here.
"""

import random
from fractions import Fraction as F

from refdep.choices import (
    Alternative,
    ChoiceDataset,
    DATED_PAYMENT,
    GENERIC,
    INCOME_SPLIT,
    LOTTERY,
    LotteryPayload,
    mismatches,
    reference_rule,
    simulate,
)
from refdep.engine import ReferenceOrder
from refdep.exceptions import RefdepError, UnknownAlternative, UnknownLottery
from refdep.ordu import simulate_ordu, verify_ordu
from refdep.risk import fit_areu, simulate_areu, verify_areu
from refdep.social import fit_fspu, gini, simulate_fspu, verify_fspu
from refdep.timepref import fit_pbdu, simulate_pbdu, verify_pbdu

from helpers import (
    all_menus,
    areu_instance,
    evaluate_areu_by_menu,
    evaluate_fspu_by_menu,
    evaluate_ordu_by_menu,
    evaluate_pbdu_by_menu,
    fractional_fspu_data,
    fractional_pbdu_data,
    fspu_instance,
    integer_areu_data,
    integer_fspu_data,
    integer_pbdu_data,
    ordu_utility,
    pay,
    pbdu_instance,
    perturbed,
    random_ordu_params,
    random_valid_areu,
    random_valid_fspu,
    random_valid_pbdu,
    split,
    tie_rich,
)


def _outcome(call):
    """``call()``, or the (class, message) of the RefdepError it raises."""
    try:
        return call()
    except RefdepError as exc:
        return type(exc), str(exc)


def _by_menu(evaluate, params, payloads):
    """A per-menu oracle over ``payloads`` (id -> payload)."""
    return lambda menu: evaluate(params, {alt: payloads[alt] for alt in menu})


def _ordu_cases():
    for seed in range(20):
        params = random_ordu_params(random.Random(seed))
        yield params, all_menus(params.order.ranking)


def _areu_cases():
    for seed in range(20):
        params = random_valid_areu(random.Random(seed))
        if params is not None:
            yield params, all_menus([i for i, _ in params.lotteries])
    for seed in range(6):
        params, menus = areu_instance(random.Random(seed), seed % 2 == 0)
        yield params, menus
    for seed in range(3):
        for n_prizes in (3, 4):
            data = tie_rich(random.Random(seed), lambda rng: integer_areu_data(rng, n_prizes))
            yield fit_areu(data), data.menus()


def _payload_cases(fit, random_valid, instance, tied, fractional):
    """(params, id -> payload, menus) from random params, the seeded
    instances, and params fitted to the tie-rich and fractional data."""
    for seed in range(20):
        drawn = random_valid(random.Random(seed))
        if drawn is not None:
            params, alternatives = drawn
            yield params, {a.id: a.payload for a in alternatives}, \
                all_menus([a.id for a in alternatives])
    for seed in range(6):
        params, payloads, menus, *_ = instance(random.Random(seed), seed % 2 == 0)
        yield params, payloads, menus
    for seed in range(6):
        for data in (tie_rich(random.Random(seed), tied), fractional(random.Random(seed))):
            yield fit(data), {alt: data.payload(alt) for alt in data.universe}, data.menus()


def _alternatives(payloads):
    return [Alternative(alt, payload) for alt, payload in payloads.items()]


def test_ordu_rule_matches_the_per_menu_evaluator():
    tied = 0
    for params, menus in _ordu_cases():
        got = simulate_ordu(params, menus)
        assert got.observations == {m: evaluate_ordu_by_menu(params, m) for m in menus}
        tied += sum(len(choice) > 1 for choice in got.observations.values())
        data = perturbed(random.Random(1), got)
        assert verify_ordu(params, data) == mismatches(
            data, lambda m: evaluate_ordu_by_menu(params, m))
    assert tied


def test_areu_rule_matches_the_per_menu_evaluator():
    tied = 0
    for params, menus in _areu_cases():
        got = simulate_areu(params, menus)
        assert got.observations == {m: evaluate_areu_by_menu(params, m) for m in got.menus()}
        tied += sum(len(choice) > 1 for choice in got.observations.values())
        data = perturbed(random.Random(1), got)
        assert verify_areu(params, data) == mismatches(
            data, lambda m: evaluate_areu_by_menu(params, m))
    assert tied


def test_pbdu_rule_matches_the_per_menu_evaluator():
    tied = 0
    for params, payloads, menus in _payload_cases(
            fit_pbdu, random_valid_pbdu, pbdu_instance, integer_pbdu_data,
            fractional_pbdu_data):
        oracle = _by_menu(evaluate_pbdu_by_menu, params, payloads)
        got = simulate_pbdu(params, _alternatives(payloads), menus)
        assert got.observations == {m: oracle(m) for m in got.menus()}
        tied += sum(len(choice) > 1 for choice in got.observations.values())
        data = perturbed(random.Random(1), got)
        assert verify_pbdu(params, data) == mismatches(data, oracle)
    assert tied


def test_fspu_rule_matches_the_per_menu_evaluator():
    tied = 0
    for params, payloads, menus in _payload_cases(
            fit_fspu, random_valid_fspu, fspu_instance, integer_fspu_data,
            fractional_fspu_data):
        oracle = _by_menu(evaluate_fspu_by_menu, params, payloads)
        got = simulate_fspu(params, _alternatives(payloads), menus)
        assert got.observations == {m: oracle(m) for m in got.menus()}
        tied += sum(len(choice) > 1 for choice in got.observations.values())
        data = perturbed(random.Random(1), got)
        assert verify_fspu(params, data) == mismatches(data, oracle)
    assert tied


def test_the_rule_builder_scores_each_pair_once_on_the_sorted_members():
    """``reference`` sees each menu's members sorted; each (reference,
    alternative) pair is scored once across menus; a failing score is
    not kept, and the first one names the menu's smallest-id offender."""
    for seed, (params, menus) in enumerate(_ordu_cases()):
        handed, scored = [], []

        def reference(members):
            handed.append(members)
            return params.order.top(members)

        def score(ref, alt):
            scored.append((ref, alt))
            return ordu_utility(params, ref)[alt]

        choose = reference_rule(reference, score)
        menus = [frozenset(m) for m in menus]
        assert [choose(m) for m in menus] == [evaluate_ordu_by_menu(params, m) for m in menus]
        assert handed == [sorted(m) for m in menus]
        assert sorted(scored) == sorted({(params.order.argmax(m), alt)
                                         for m in menus for alt in m})
        bad = set(random.Random(seed).sample(params.order.ranking, 2))

        def failing(ref, alt):
            if alt in bad:
                raise UnknownAlternative(alt)
            return ordu_utility(params, ref)[alt]

        choose = reference_rule(params.order.top, failing)
        for menu in menus:
            expected = (UnknownAlternative, min(bad & menu)) if bad & menu \
                else evaluate_ordu_by_menu(params, menu)
            assert _outcome(lambda: choose(menu)) == expected


def _with_offender(menus, offender, partner):
    """``menus`` with one more menu, {partner, offender}, in the middle."""
    menus = list(menus)
    return menus[:len(menus) // 2] + [frozenset((partner, offender))] + menus[len(menus) // 2:]


def test_an_alternative_the_order_misses_raises_as_before():
    for params, menus in _ordu_cases():
        menus = _with_offender(menus, "z", params.order.ranking[0])
        alternatives = [Alternative(alt) for alt in sorted(params.order.ranking)]
        got = _outcome(lambda: simulate_ordu(params, menus))
        assert isinstance(got, tuple) and got == _outcome(lambda: simulate(
            GENERIC, alternatives, menus, lambda m: evaluate_ordu_by_menu(params, m)))
    for params, menus in _areu_cases():
        menus = _with_offender(menus, "z", params.order.ranking[-1])
        got = _outcome(lambda: simulate_areu(params, menus))
        assert isinstance(got, tuple) and got == _outcome(lambda: simulate(
            LOTTERY, [], menus, lambda m: evaluate_areu_by_menu(params, m)))
    # the order's top raises the class it is given, naming the sorted
    # off-order ids, before any score is taken
    order, scored = ReferenceOrder(("b", "a")), []
    choose = reference_rule(lambda members: order.top(members, UnknownLottery),
                            lambda ref, alt: scored.append((ref, alt)) or 0)
    assert _outcome(lambda: choose({"z", "a", "y", "b"})) == (
        UnknownLottery, "['y', 'z'] not covered by the order")
    assert _outcome(lambda: order.top(["y", "a"])) == (
        UnknownAlternative, "['y'] not covered by the order")
    assert scored == [] and choose({"a", "b"}) == {"a", "b"} and order.top(["a", "b"]) == "b"


def _pbdu_gaps(params, payloads):
    """A payment off the amount grid, paid with the smallest id's."""
    return [pay(max(a for a, _ in params.log_utility) + 1, payloads[min(payloads)].time)]


def _fspu_gaps(params, payloads):
    """A split off the other-income grid and, when there is one, a split
    more balanced than the smallest id's whose Gini has no table."""
    grid = [y for y, _ in params.tables[0][1]]
    refs = {r for r, _ in params.tables}
    for own in range(1, 100):
        level = gini(split(own, grid[0]))
        if level < gini(payloads[min(payloads)]) and level not in refs:
            return [split(1, max(grid) + 1), split(own, grid[0])]
    return [split(1, max(grid) + 1)]


def _payload_models():
    yield (DATED_PAYMENT, simulate_pbdu, verify_pbdu, evaluate_pbdu_by_menu, _pbdu_gaps,
           _payload_cases(fit_pbdu, random_valid_pbdu, pbdu_instance, integer_pbdu_data,
                          fractional_pbdu_data))
    yield (INCOME_SPLIT, simulate_fspu, verify_fspu, evaluate_fspu_by_menu, _fspu_gaps,
           _payload_cases(fit_fspu, random_valid_fspu, fspu_instance, integer_fspu_data,
                          fractional_fspu_data))


def test_a_payload_off_the_params_grid_raises_as_before():
    """One offender in one menu beside the smallest id: the same class and
    message, raised on the same menu (the rules score lazily, in the order
    menus are visited)."""
    for kind, simulate_model, _, evaluate, gaps, cases in _payload_models():
        for params, payloads, menus in cases:
            for gap in gaps(params, payloads):
                with_gap = {**payloads, "z": gap}
                menus_z = _with_offender(menus, "z", min(payloads))
                got = _outcome(lambda: simulate_model(params, _alternatives(with_gap), menus_z))
                assert isinstance(got, tuple) and got == _outcome(lambda: simulate(
                    kind, _alternatives(with_gap), menus_z, _by_menu(evaluate, params, with_gap)))


def test_an_offender_in_no_menu_raises_nothing():
    """Scores are filled on first use: a payment or split off the grid,
    or an alternative the params do not name, that no menu holds is
    never scored."""
    for _, simulate_model, verify_model, evaluate, gaps, cases in _payload_models():
        for params, payloads, menus in cases:
            with_gaps = {**payloads, **{f"z{i}": gap for i, gap in
                                        enumerate(gaps(params, payloads))}}
            got = simulate_model(params, _alternatives(with_gaps), menus)
            oracle = _by_menu(evaluate, params, with_gaps)
            assert got.observations == {m: oracle(m) for m in got.menus()}
            assert verify_model(params, got) == []
    for params, menus in _ordu_cases():
        data = simulate_ordu(params, menus)
        data = ChoiceDataset(GENERIC, {**data.alternatives, "z": Alternative("z")},
                             data.observations)
        assert verify_ordu(params, data) == []
    for params, menus in _areu_cases():
        data = simulate_areu(params, menus)
        sure = LotteryPayload(((params.prizes[0], F(1)),))
        data = ChoiceDataset(LOTTERY, {**data.alternatives, "z": Alternative("z", sure)},
                             data.observations)
        assert verify_areu(params, data) == []
