import importlib
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from pathlib import Path

import pytest

from refdep.choices import (
    Alternative,
    ChoiceDataset,
    LotteryPayload,
    menu_key,
    over_common_denominator,
    warp_over,
)
from refdep.engine import ReferenceOrder
from refdep import feasibility, risk
from refdep.exceptions import (
    AxiomFails,
    InfeasibleFit,
    NotIncreasing,
    PrizeSetMismatch,
    UnknownLottery,
    ValidationError,
)
from refdep.feasibility import LinearFeasibilityProblem, solve_linear_feasibility
from refdep.risk import (
    AreuParams,
    Fanning,
    check_avoidable_risk,
    check_fosd_dominance,
    check_risk_reference_dependence,
    extreme_spread,
    fanning_classify,
    fit_areu,
    fosd,
    independence_over,
    least_risky,
    linkage_report_risk,
    mps,
    prize_grid,
    rho_vector,
    riskier_than,
    simulate_areu,
    triangle_rows,
    verify_areu,
    worst_dilution,
)
from refdep.serialize import dataset_from_dict
from refdep.social import check_fairness

from helpers import (
    ALLAIS_LOTTERIES,
    all_menus,
    allais_dataset,
    areu_data,
    areu_instance,
    avoidable_risk_by_loop,
    diff_key_by_fractions,
    extreme_spread_by_fractions,
    extreme_spread_by_loop,
    fairness_by_fractions,
    fosd_by_loop,
    fosd_dominance_by_loop,
    fraction_vectors,
    fspu_data,
    integer_areu_data,
    interval_by_fractions,
    interval_keys_by_fractions,
    lot,
    lottery_dataset,
    menu_rows_by_fractions,
    mixture_correspondences_by_fractions,
    mps_by_loop,
    perturbed,
    ranks_of,
    random_rho_monotone_areu,
    random_valid_areu,
    reference_assignments_unpruned,
    restrict,
    reverse_allais_dataset,
    two_utility_four_prize_params,
    utility_problem_by_menus,
    validate_areu_by_fractions,
    worst_dilution_by_fractions,
    worst_dilution_by_loop,
)

PRIZES = (F(0), F(3000), F(4000))


def vec(w, m, b):
    return (F(w), F(m), F(b))


# -- the risk orders ---------------------------------------------------------


def test_fosd_best_dominates_worst():
    assert fosd(PRIZES, vec(0, 0, 1), vec(1, 0, 0))
    assert not fosd(PRIZES, vec(1, 0, 0), vec(0, 0, 1))


def test_fosd_is_irreflexive():
    p = vec(F(1, 5), 0, F(4, 5))
    assert not fosd(PRIZES, p, p)


def test_fosd_allais_pair():
    assert fosd(PRIZES, vec(F(1, 5), 0, F(4, 5)), vec(F(4, 5), 0, F(1, 5)))


def test_fosd_dominance_matches_its_loop_on_perturbed_data():
    """Every (menu, chosen loser, dominator) witness, in the loop's order,
    on perturbed quarter-grid data of 3 and 4 prizes and on perturbed
    model-generated data."""
    rng = random.Random(19)
    found = 0
    for k in range(40):
        ds = perturbed(rng, integer_areu_data(rng, 3 + k % 2) if k % 4
                       else simulate_areu(*areu_instance(rng, k % 8 == 0)))
        expected = fosd_dominance_by_loop(ds)
        assert check_fosd_dominance(ds) == expected
        found += len(expected)
    assert found > 40


def test_mps_symmetric_spread_of_the_midpoint():
    prizes = (F(0), F(2000), F(4000))
    spread = vec(F(1, 2), 0, F(1, 2))
    mid = vec(0, 1, 0)
    assert mps(prizes, spread, mid)
    assert not mps(prizes, mid, spread)


def test_mps_is_irreflexive():
    p = vec(F(1, 4), F(1, 2), F(1, 4))
    assert not mps(PRIZES, p, p)


def test_mps_requires_equal_means():
    assert not mps(PRIZES, vec(F(1, 2), 0, F(1, 2)), vec(0, 1, 0))


def test_extreme_spread_construction():
    # q has interior mass; p = 1/2 q + 1/2 (1/2 best + 1/2 worst)
    q = vec(F(1, 4), F(1, 2), F(1, 4))
    p = tuple(F(1, 2) * x + F(1, 2) * e
              for x, e in zip(q, vec(F(1, 2), 0, F(1, 2))))
    assert extreme_spread(PRIZES, p, q)
    assert q[2] < F(1, 2) < 1 - q[0]


def test_extreme_spread_is_irreflexive():
    p = vec(F(1, 4), F(1, 2), F(1, 4))
    assert not extreme_spread(PRIZES, p, p)
    e = vec(F(1, 2), 0, F(1, 2))
    assert not extreme_spread(PRIZES, e, e)


def test_extreme_spread_alpha_window_is_open():
    q = vec(F(1, 2), 0, F(1, 2))
    # any best/worst mixture against q needs alpha in (1/2, 1/2): empty
    assert not extreme_spread(PRIZES, vec(F(1, 5), 0, F(4, 5)), q)
    # a two-point bet against a lottery with interior mass, inside the window
    assert extreme_spread(PRIZES, vec(F(4, 5), 0, F(1, 5)),
                          vec(F(3, 4), F(1, 4), 0))


def test_worst_dilution_detects_quarter_mix():
    p1 = vec(0, 1, 0)
    q1 = vec(F(3, 4), F(1, 4), 0)
    assert worst_dilution(PRIZES, q1, p1)
    assert not worst_dilution(PRIZES, p1, q1)
    assert not extreme_spread(PRIZES, q1, p1)  # alpha = 0 boundary excluded


def test_least_risky_drops_spreads():
    ds = allais_dataset()
    assert least_risky(ds, frozenset(("p1", "p2"))) == frozenset(("p1",))
    assert least_risky(ds, frozenset(("q1", "q2"))) == frozenset(("q1",))
    assert least_risky(ds, frozenset(("p1",))) == frozenset(("p1",))


def test_least_risky_retains_unordered_pairs():
    lots = {"a": lot([(3000, 1)]), "b": lot([(0, F(1, 5)), (4000, F(4, 5))])}
    # b is an extreme spread of a, so only a survives; with two unrelated
    # interior lotteries both survive
    ds = lottery_dataset(lots, [(frozenset(lots), ["a"])])
    assert least_risky(ds, frozenset(lots)) == frozenset(("a",))
    lots2 = {"a": lot([(0, F(1, 10)), (3000, F(8, 10)), (4000, F(1, 10))]),
             "b": lot([(0, F(2, 10)), (3000, F(7, 10)), (4000, F(1, 10))])}
    ds2 = lottery_dataset(lots2, [(frozenset(lots2), ["a"])])
    assert least_risky(ds2, frozenset(lots2)) == frozenset(("a", "b"))


def test_order_sanity_on_random_lottery_sets():
    rng = random.Random(3)
    prizes = (F(0), F(1), F(3), F(4))
    for _ in range(60):
        vectors = []
        while len(vectors) < 6:
            cuts = sorted(rng.randint(0, 6) for _ in range(3))
            candidate = (F(cuts[0], 6), F(cuts[1] - cuts[0], 6),
                         F(cuts[2] - cuts[1], 6), F(6 - cuts[2], 6))
            if candidate not in vectors:
                vectors.append(candidate)
        for p in vectors:
            assert not mps(prizes, p, p)
            assert not extreme_spread(prizes, p, p)
        edges = {(i, j) for i in range(6) for j in range(6) if i != j
                 and riskier_than(prizes, vectors[i], vectors[j])}
        # forced constraints are acyclic
        remaining = set(range(6))
        while remaining:
            free = [n for n in remaining
                    if not any((n, m) in edges for m in remaining)]
            assert free, "cycle in the forced risk order"
            remaining.difference_update(free)
        for i, j in edges:
            assert not fosd(prizes, vectors[i], vectors[j]) or \
                not extreme_spread(prizes, vectors[i], vectors[j])


def test_extreme_spread_never_dominates_its_base():
    rng = random.Random(5)
    prizes = (F(0), F(2), F(5))
    for _ in range(200):
        denom = rng.choice([4, 5, 6, 8])
        a = rng.randint(0, denom)
        b = rng.randint(0, denom - a)
        p = (F(a, denom), F(b, denom), F(denom - a - b, denom))
        a2 = rng.randint(0, denom)
        b2 = rng.randint(0, denom - a2)
        q = (F(a2, denom), F(b2, denom), F(denom - a2 - b2, denom))
        if extreme_spread(prizes, p, q):
            assert p != q
            assert not fosd(prizes, p, q)


def _probability_vector(rng, n):
    denom = rng.choice((2, 3, 4, 6, 12))
    cuts = sorted(rng.randint(0, denom) for _ in range(n - 1))
    return tuple(F(hi - lo, denom) for lo, hi in zip((0, *cuts), (*cuts, denom)))


def _mix(weight, p, q):
    return tuple(weight * x + (1 - weight) * y for x, y in zip(p, q))


def _related_pair(rng, prizes):
    """(p, q) built so that one relation tends to hold: a worst-prize
    dilution, a mixture with a best/worst bet, a mean-preserving move of
    an interior prize's mass to two others, an upward shift of mass, or
    neither (independent draws)."""
    n = len(prizes)
    q = _probability_vector(rng, n)
    weight = F(rng.randint(0, 4), 4)
    worst, best = (F(1), *[F(0)] * (n - 1)), (*[F(0)] * (n - 1), F(1))
    kind = rng.randrange(5)
    if kind == 0:
        return _mix(weight, q, worst), q
    if kind == 1:
        return _mix(weight, q, _mix(F(rng.randint(0, 6), 6), best, worst)), q
    movable = [i for i in range(1 if kind == 2 else 0, n - 1) if q[i]]
    if kind == 4 or not movable:
        return _probability_vector(rng, n), q
    p = list(q)
    mid = rng.choice(movable)
    moved = q[mid] * F(rng.randint(1, 2), 2)
    p[mid] -= moved
    if kind == 2:
        lo, hi = rng.randrange(mid), rng.randrange(mid + 1, n)
        p[lo] += moved * (prizes[hi] - prizes[mid]) / (prizes[hi] - prizes[lo])
        p[hi] += moved * (prizes[mid] - prizes[lo]) / (prizes[hi] - prizes[lo])
    else:
        p[rng.randrange(mid + 1, n)] += moved
    return tuple(p), q


def test_relations_match_their_explicit_loops_on_random_vectors():
    rng = random.Random(12)
    holds = dict.fromkeys(("fosd", "mps", "extreme", "dilution"), 0)
    for _ in range(50_000):
        prizes = tuple(F(x) for x in sorted(rng.sample(range(12), rng.randint(3, 5))))
        p, q = _related_pair(rng, prizes)
        if rng.random() < 0.5:
            p, q = q, p
        results = {
            "fosd": (fosd(prizes, p, q), fosd_by_loop(prizes, p, q)),
            "mps": (mps(prizes, p, q), mps_by_loop(prizes, p, q)),
            "extreme": (extreme_spread(prizes, p, q), extreme_spread_by_loop(prizes, p, q)),
            "dilution": (worst_dilution(prizes, p, q), worst_dilution_by_loop(prizes, p, q)),
        }
        for name, (new, old) in results.items():
            assert new == old, (name, prizes, p, q)
            holds[name] += new not in (False, None)
    assert min(holds.values()) > 3_000, holds


@pytest.mark.parametrize("relation", [fosd, mps, extreme_spread, worst_dilution, riskier_than])
def test_public_relations_reject_a_vector_off_the_grid(relation):
    # the dataset's own coordinates skip this check; a caller's vectors do not
    on, short, long = vec(1, 0, 0), (F(1, 2), F(1, 2)), (F(1, 4),) * 4
    for p, q in ((short, on), (on, short), (long, on), (on, long)):
        with pytest.raises(PrizeSetMismatch):
            relation(PRIZES, p, q)


# -- the integer view against the Fraction forms -------------------------------


def _fractional_grid(rng, n):
    """``n`` prizes with non-unit denominators."""
    values = sorted({F(k, d) for d in (2, 3, 5) for k in range(1, 4 * d) if k % d})
    return tuple(sorted(rng.sample(values, n)))


def test_relations_on_integer_coordinates_match_the_fraction_forms():
    rng = random.Random(13)
    holds = dict.fromkeys(("fosd", "mps", "extreme", "dilution"), 0)
    for _ in range(8_000):
        prizes = _fractional_grid(rng, rng.choice((3, 4)))
        p, q = _related_pair(rng, prizes)
        if rng.random() < 0.5:
            p, q = q, p
        mixed = (_mix(F(rng.randint(0, 6), 6), p, q) if rng.random() < 0.5
                 else _probability_vector(rng, len(prizes)))
        _, (grid,) = over_common_denominator([prizes])
        _, (ip, iq, im) = over_common_denominator([p, q, mixed])
        assert all(type(x) is int for x in (*grid, *ip, *iq, *im))
        results = {
            "fosd": (fosd(grid, ip, iq), fosd_by_loop(prizes, p, q)),
            "mps": (mps(grid, ip, iq), mps_by_loop(prizes, p, q)),
            "extreme": (extreme_spread(grid, ip, iq), extreme_spread_by_fractions(prizes, p, q)),
            "dilution": (worst_dilution(grid, ip, iq), worst_dilution_by_fractions(prizes, p, q)),
        }
        for name, (new, old) in results.items():
            assert new == old, (name, prizes, p, q, mixed)
            holds[name] += new not in (False, None)
    assert min(holds.values()) > 400, holds


def _fractional_lottery_dataset(rng, n_prizes):
    """Up to eight lotteries on an ``n_prizes`` grid with non-unit prize
    denominators: three random ones, mixtures of two of them with the
    third (so that Independence has correspondences) and a full-support
    one that keeps the whole grid; random choices on all menus of size
    2-3."""
    prizes = _fractional_grid(rng, n_prizes)
    base = [_probability_vector(rng, n_prizes) for _ in range(3)]
    vectors = {tuple(F(1, n_prizes) for _ in prizes), *base}
    for weight in (F(1, 2), F(1, 3)):
        vectors.update(_mix(weight, v, base[2]) for v in base[:2])
    named = {f"l{i}": v for i, v in enumerate(sorted(vectors))}
    lots = {name: lot(zip(prizes, v)) for name, v in named.items()}
    return lottery_dataset(lots, [(m, rng.sample(sorted(m), rng.randint(1, len(m))))
                                  for m in all_menus(named, 2, 3)])


def _partition(keys):
    """The classes of equal keys among ``keys`` (item -> key)."""
    classes = {}
    for item, key in keys.items():
        classes.setdefault(key, set()).add(item)
    return {frozenset(items) for items in classes.values()}


def _as_fraction_interval(interval, scale):
    """An interval of ordered bound keys on ``scale`` in the form of
    ``interval_by_fractions``: None when empty, else ((value, open),
    (value, open)) with each value divided by the scale."""
    (lo, lo_side), (hi, hi_side) = interval
    if interval[0] > interval[1]:
        return None
    return (F(lo, scale), lo_side == 1), (F(hi, scale), hi_side == -1)


def _integer_rows(rows):
    """(a, c, relation) rows, each times the lcm of its denominators: the
    same bounds on u(1), in integers."""
    out = []
    for a, c, relation in rows:
        k = math.lcm(F(a).denominator, F(c).denominator)
        out.append((int(a * k), int(c * k), relation))
    return out


def _scale(classes):
    """The least common multiple of every nonzero |a| of the integer rows
    of ``classes``, the scale ``risk._rho_interval`` takes per dataset."""
    return math.lcm(*{abs(a) for rows in classes for a, _, _ in rows if a})


def _intervals(classes):
    """``risk._interval`` of each class of (a, c, relation) rows, on the
    rows' integer form and one scale common to all the classes."""
    classes = [_integer_rows(rows) for rows in classes]
    scale = _scale(classes)
    return [risk._interval(rows, scale) for rows in classes]


def test_forced_edges_reuse_the_cached_spreads(monkeypatch):
    """The forced edges are the spreads the least-risky map cached, reversed,
    plus the worst-prize dilutions: the set the ``_below`` loop gives on
    every ordered pair, with no spread tested again."""
    datasets = [areu_data(random.Random(seed)) for seed in range(6)]
    datasets += [integer_areu_data(random.Random(seed), n) for seed in range(4) for n in (3, 4)]
    datasets += [perturbed(random.Random(seed), ds) for seed, ds in enumerate(datasets)]
    riskier, calls = risk._riskier, []
    for ds in datasets:
        prizes, _, vectors = risk._coords(ds)
        below = {(q, p) for p in vectors for q in vectors
                 if p != q and risk._below(prizes, vectors[p], vectors[q])}
        risk._spreads(ds)
        monkeypatch.setattr(risk, "_riskier", lambda *a: calls.append(a) or riskier(*a))
        assert risk._forced_edges(ds) == below
        monkeypatch.undo()
    assert calls == []


def test_integer_view_matches_the_fraction_forms_on_random_datasets():
    rng = random.Random(31)
    seen = {"correspondences": 0, "empty interval": 0, "interval": 0}
    for trial in range(60):
        n = 3 + trial % 2
        ds = _fractional_lottery_dataset(rng, n)
        prizes, vectors = risk.prize_grid(ds), fraction_vectors(ds)
        assert len(prizes) == n
        grid, den, numerators = risk._coords(ds)
        assert {alt: tuple(F(x, den) for x in v) for alt, v in numerators.items()} == vectors
        assert len({F(x) / y for x, y in zip(grid, prizes)}) == 1

        spreads = {(p, q) for p in vectors for q in vectors if p != q
                   and (mps_by_loop(prizes, vectors[p], vectors[q])
                        or extreme_spread_by_fractions(prizes, vectors[p], vectors[q]))}
        assert risk._spreads(ds) == spreads
        assert risk._forced_edges(ds) == {
            (q, p) for p in vectors for q in vectors if p != q and (
                (p, q) in spreads or worst_dilution_by_fractions(prizes, vectors[p], vectors[q]))}

        diffs = risk._diff_table(ds)
        fraction_diffs = {(a, b): tuple(x - y for x, y in zip(vectors[a], vectors[b]))
                          for a, b in diffs}
        for pair, (vec, key) in diffs.items():
            assert vec == tuple(den * x for x in fraction_diffs[pair])
            assert (key is None) == (diff_key_by_fractions(fraction_diffs[pair]) is None)
        assert _partition({pair: key for pair, (_, key) in diffs.items()}) == _partition(
            {pair: diff_key_by_fractions(vec) for pair, vec in fraction_diffs.items()})

        correspondences = risk._mixture_correspondences(ds)
        assert correspondences == mixture_correspondences_by_fractions(ds)
        seen["correspondences"] += bool(correspondences)

        menu_rows = risk._menu_rows(ds)
        assert list(menu_rows) == list(ds.menus())
        for menu in ds.menus():
            rows = menu_rows[menu]
            expected = menu_rows_by_fractions(ds, menu)
            assert rows == [(relation, tuple(den * x for x in diff))
                            for relation, diff in expected]
            if n == 3:
                bounds = [(diff[1], diff[2], relation) for relation, diff in rows]
                scale = _scale([bounds])
                oracle = interval_by_fractions(
                    (diff[1], diff[2], relation) for relation, diff in expected)
                interval = _as_fraction_interval(risk._interval(bounds, scale), scale)
                assert interval == oracle
                assert _as_fraction_interval(risk._interval(bounds, 3 * scale), 3 * scale) == oracle
                seen["empty interval" if interval is None else "interval"] += 1
    assert min(seen.values()) >= 20, seen


def test_integer_view_diff_table_intervals_and_lp_rows_hold_no_float(monkeypatch):
    def exact(values):
        return all(type(x) in (int, F) for x in values)

    problems, tableaus = [], []
    solve, simplex = risk.solve_linear_feasibility, feasibility._simplex_maximize
    monkeypatch.setattr(risk, "solve_linear_feasibility",
                        lambda problem: problems.append(problem) or solve(problem))
    monkeypatch.setattr(feasibility, "_simplex_maximize",
                        lambda rows, objective: tableaus.append((rows, objective))
                        or simplex(rows, objective))
    rng = random.Random(17)
    for n_prizes in (3, 3, 4, 4):
        ds = integer_areu_data(rng, n_prizes)
        assert verify_areu(fit_areu(ds), ds) == []
        grid, den, numerators = risk._coords(ds)
        assert all(type(x) is int for x in (
            *grid, den, *(x for v in numerators.values() for x in v)))
        for vec, key in risk._diff_table(ds).values():
            assert all(type(x) is int for x in (*vec, *(key or ())))
        if n_prizes == 3:
            for menu_rows in risk._menu_rows(ds).values():
                rows = [(diff[1], diff[2], relation) for relation, diff in menu_rows]
                bounds = risk._interval(rows, _scale([rows]))
                assert all(type(value) is int for value, _ in bounds)
                assert all(type(side) is int for _, side in bounds)
            risk._rho_interval(ds, ds.menus())
            ranks = ds.cached("menu-intervals", dict)
            assert len(ranks) == len(ds.menus())
            assert all(type(rank) is int for pair in ranks.values() for rank in pair)
    assert problems and tableaus
    for problem in problems:
        assert type(problem.denominator) is int
        assert all(exact((*(c for _, c in con.coeffs), con.rhs)) for con in problem.constraints)
    for rows, objective in tableaus:
        assert exact(objective) and all(exact((*vec, bound)) for vec, bound in rows)


# -- independence ------------------------------------------------------------


def test_independence_flags_allais():
    ds = allais_dataset()
    witnesses = independence_over(ds, ds.menus())
    assert witnesses
    assert {frozenset(w.menus) for w in witnesses} == {
        frozenset({frozenset(("p1", "p2")), frozenset(("q1", "q2"))})}


def test_independence_single_eu_menu_passes():
    lots = dict(ALLAIS_LOTTERIES)
    ds = lottery_dataset(lots, [(frozenset(lots), ["p1"])])
    # p1 maximizes any sufficiently concave utility; one menu alone is
    # mixture-consistent
    assert independence_over(ds, ds.menus()) == []


def test_independence_clean_on_expected_utility_data():
    # one utility, exhaustive menus; brute-force every recovered quadruple
    table = {"p1": F(9, 10), "p2": F(8, 10) * 1, "q1": F(9, 40), "q2": F(1, 5)}
    lots = dict(ALLAIS_LOTTERIES)
    menus = all_menus(lots, 2, 4)
    rows = []
    for menu in menus:
        best = max(table[x] for x in menu)
        rows.append((menu, {x for x in menu if table[x] == best}))
    ds = lottery_dataset(lots, rows)
    assert independence_over(ds, ds.menus()) == []


# -- the risk axioms ---------------------------------------------------------


def test_risk_reference_dependence_passes_on_allais():
    assert check_risk_reference_dependence(allais_dataset()) == []


def test_risk_reference_dependence_passes_on_eu_data():
    params = random_rho_monotone_areu(random.Random(2))
    flat = {name: params.utility(params.order.ranking[0])
            for name, _ in params.lotteries}
    eu = AreuParams.build(params.prizes, dict(params.lotteries),
                          params.order, flat)
    ds = simulate_areu(eu, all_menus([i for i, _ in eu.lotteries], 2, 3))
    assert check_risk_reference_dependence(ds) == []


def test_risk_reference_dependence_fails_inside_a_preserving_family():
    safe = lot([(3000, 1)])
    s1 = lot([(0, F(2, 10)), (3000, F(5, 10)), (4000, F(3, 10))])
    s2 = lot([(0, F(4, 10)), (3000, 0), (4000, F(6, 10))])
    lots = {"safe": safe, "s1": s1, "s2": s2}
    # both s1 and s2 are extreme spreads of safe, so safe anchors every menu;
    # flip the s1/s2 ranking between nested menus to break WARP inside
    ds = lottery_dataset(lots, [
        (frozenset(("safe", "s1", "s2")), ["s1"]),
        (frozenset(("safe", "s1")), ["safe"]),
        (frozenset(("safe", "s2")), ["s2"]),
        (frozenset(("s1", "s2")), ["s1"]),
    ])
    failures = check_risk_reference_dependence(ds)
    assert failures and sorted(failures[0].menu) == ["s1", "s2", "safe"]


def test_avoidable_risk_flags_expansion_toward_risk():
    lots = dict(ALLAIS_LOTTERIES)
    lots["z"] = lot([(0, F(9, 10)), (4000, F(1, 10))])
    ds = lottery_dataset(lots, [
        (frozenset(("p1", "p2")), ["p1"]),
        (frozenset(("p1", "p2", "z")), ["p2"]),
    ])
    witnesses = check_avoidable_risk(ds)
    assert witnesses
    assert witnesses[0].kind == "AvoidableRisk"


def test_avoidable_risk_passes_on_eu_data():
    params = random_rho_monotone_areu(random.Random(4))
    flat = {name: params.utility(params.order.ranking[0])
            for name, _ in params.lotteries}
    eu = AreuParams.build(params.prizes, dict(params.lotteries),
                          params.order, flat)
    ds = simulate_areu(eu, all_menus([i for i, _ in eu.lotteries], 2, 3))
    assert check_avoidable_risk(ds) == []


def test_avoidable_risk_vacuous_without_nested_pairs():
    assert check_avoidable_risk(allais_dataset()) == []


# -- concavity ---------------------------------------------------------------


def test_rho_requires_increasing_utilities():
    with pytest.raises(NotIncreasing):
        rho_vector(PRIZES, (F(0), F(1), F(1)))


def _gap_ratios(u):
    """``risk._gap_ratios`` of a ``Fraction`` utility, on its numerators
    over their common denominator."""
    den = math.lcm(*(x.denominator for x in u))
    return risk._gap_ratios([x.numerator * (den // x.denominator) for x in u])


def test_gap_ratio_pairs_are_the_rho_quotients_at_any_scale():
    rng = random.Random(5)
    seen = 0
    for _ in range(200):
        cuts = sorted(rng.sample(range(1, 40), 3))
        u = (F(0), *(F(c, rng.choice((40, 60))) for c in cuts), F(1))
        if any(a >= b for a, b in zip(u, u[1:])):
            continue
        pairs = _gap_ratios(u)
        assert all(den > 0 for _, den in pairs)
        quotients = [(u[i] - u[i - 1]) / (u[i + 1] - u[i - 1]) for i in range(1, 4)]
        assert [F(num, den) for num, den in pairs] == quotients
        assert list(rho_vector((0, 1, 2, 3, 4), u)) == quotients
        seen += 1
    assert seen >= 100


def test_concavity_compare_examples():
    r = _gap_ratios((F(0), F(7, 10), F(1)))
    hi = _gap_ratios((F(0), F(9, 10), F(1)))
    assert risk._more_concave(r, r)
    assert risk._more_concave(hi, r)
    assert not risk._more_concave(r, hi)


def test_concavity_crossing_rhos_are_incomparable():
    r1 = _gap_ratios((F(0), F(1, 2), F(3, 4), F(1)))
    r2 = _gap_ratios((F(0), F(1, 4), F(9, 10), F(1)))
    assert not risk._more_concave(r1, r2)
    assert not risk._more_concave(r2, r1)


def _piecewise_concave_transform_exists(prizes, u_target, u_base):
    slopes = [(u_target[i + 1] - u_target[i]) / (u_base[i + 1] - u_base[i])
              for i in range(len(prizes) - 1)]
    return all(slopes[i] >= slopes[i + 1] for i in range(len(slopes) - 1))


def test_rho_dominance_matches_interpolation_oracle():
    rng = random.Random(9)
    prizes = tuple(F(x) for x in (0, 1, 3, 6, 10))
    for _ in range(200):
        cuts1 = sorted(rng.randint(1, 39) for _ in range(3))
        cuts2 = sorted(rng.randint(1, 39) for _ in range(3))
        while len(set(cuts1)) < 3:
            cuts1 = sorted(rng.randint(1, 39) for _ in range(3))
        while len(set(cuts2)) < 3:
            cuts2 = sorted(rng.randint(1, 39) for _ in range(3))
        u1 = (F(0),) + tuple(F(c, 40) for c in cuts1) + (F(1),)
        u2 = (F(0),) + tuple(F(c, 40) for c in cuts2) + (F(1),)
        more = risk._more_concave(_gap_ratios(u1), _gap_ratios(u2))
        assert more == _piecewise_concave_transform_exists(prizes, u1, u2)


# -- fitting -----------------------------------------------------------------


def test_build_rejects_a_utility_off_the_prize_grid():
    with pytest.raises(PrizeSetMismatch):
        AreuParams.build(PRIZES, {"p": vec(0, 1, 0)}, ReferenceOrder(("p",)), {"p": ()})


@pytest.mark.parametrize("prizes", [["2", "0", "1"], ["0", "0", "1"], ["0", "1", "1"]])
def test_validate_rejects_a_prize_grid_that_is_not_strictly_increasing(prizes):
    doc = {"prizes": prizes, "lotteries": {"a": ["1", "0", "0"], "b": ["0", "0", "1"]},
           "order": ["b", "a"], "utilities": {"a": ["0", "1/2", "1"], "b": ["0", "1/2", "1"]}}
    with pytest.raises(ValidationError, match="prizes must be strictly increasing"):
        AreuParams.from_json(doc)
    assert AreuParams.from_json({**doc, "prizes": ["0", "1", "2"]}).prizes == (0, 1, 2)


def test_validate_ranks_a_worst_prize_dilution_below_its_source():
    # b mixes the sure middle prize a with the sure worst prize: it is no
    # spread of a, yet no reference order may rank it above a
    vectors = {"a": vec(0, 1, 0), "b": vec(F(1, 2), F(1, 2), 0)}
    utilities = {"a": vec(0, F(1, 2), 1), "b": vec(0, F(1, 2), 1)}
    assert not riskier_than(PRIZES, vectors["b"], vectors["a"])
    assert worst_dilution(PRIZES, vectors["b"], vectors["a"])
    AreuParams.build(PRIZES, vectors, ReferenceOrder(("a", "b")), utilities)
    with pytest.raises(ValidationError, match="b is a spread or a worst-prize dilution of a"):
        AreuParams.build(PRIZES, vectors, ReferenceOrder(("b", "a")), utilities)


def _mutated(rng, doc):
    """A copy of the params document ``doc`` with one or two of: two order
    entries swapped, a utility off 0 or 1 at an end, a utility flat or
    falling somewhere, two lotteries' utilities swapped, probability mass
    moved or removed, a vector one entry longer or shorter."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((1, 1, 2))):
        ids = sorted(doc["lotteries"])
        a, b = rng.sample(ids, 2)
        u, vec = doc["utilities"][a], doc["lotteries"][a]
        kind = rng.choice(("order", "end", "flat", "swap", "mass", "length"))
        if kind == "order":
            order = doc["order"]
            i, j = order.index(a), order.index(b)
            order[i], order[j] = order[j], order[i]
        elif kind == "end":
            u[rng.choice((0, -1))] = rng.choice(("1/7", "9/10", "-1/3"))
        elif kind == "flat":
            k = rng.randint(1, len(u) - 1)
            u[k] = u[k - 1] if rng.random() < 0.5 else "1/100"
        elif kind == "swap":
            doc["utilities"][a], doc["utilities"][b] = doc["utilities"][b], u
        elif kind == "mass":
            i, j = rng.sample(range(len(vec)), 2)
            step = F(rng.choice((1, 2)), rng.choice((4, 6)))
            vec[i] = str(F(vec[i]) - step)
            vec[j] = str(F(vec[j]) + step * rng.choice((1, 1, 0)))
        else:
            target = rng.choice((vec, u))
            target.append("0") if rng.random() < 0.5 else target.pop()
    return doc


def _unvalidated(doc):
    """``AreuParams.from_json(doc)`` without its ``validate``."""
    def vectors(key):
        return tuple(sorted((i, tuple(F(x) for x in v)) for i, v in doc[key].items()))
    return AreuParams(tuple(F(x) for x in doc["prizes"]), vectors("lotteries"),
                      ReferenceOrder(tuple(doc["order"])), vectors("utilities"))


def _raised(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001  the class and message are compared
        return type(error), str(error)
    return None


def test_integer_validate_matches_the_fraction_validate_on_mutated_params():
    rng = random.Random(40)
    bases = []
    while len(bases) < 60:
        params = rng.choice((random_valid_areu, random_rho_monotone_areu,
                             two_utility_four_prize_params))(rng)
        if params is not None:
            bases.append(params.to_json())
    verdicts = Counter()
    for k in range(1200):
        doc = bases[k % len(bases)] if k % 10 == 0 else _mutated(rng, bases[k % len(bases)])
        got = _raised(lambda: AreuParams.from_json(doc))
        assert got == _raised(lambda: validate_areu_by_fractions(_unvalidated(doc))), doc
        verdicts["accepted" if got is None else " ".join(got[1].split()[:2])] += 1
    assert len(verdicts) == 7 and min(verdicts.values()) >= 30, verdicts


def test_check_lotteries_matches_the_grid_vector_comparison():
    """A named lottery passes exactly when its probabilities on the params'
    grid are the params' vector: moved mass, mass off the grid and zero
    mass on an extra prize all checked."""
    rng = random.Random(41)
    verdicts = Counter()
    for _ in range(300):
        params = random_rho_monotone_areu(rng)
        named = dict(params.lotteries)
        changed = rng.choice(sorted(named))
        alts = []
        for alt_id, vec in params.lotteries:
            pairs = list(zip(params.prizes, vec))
            change = rng.random() if alt_id == changed else 1
            if change < 0.25:  # mass moved on the grid
                (x, p), (y, q) = rng.sample(pairs, 2)
                pairs = [(x, (p + q) / 2), (y, (p + q) / 2)] + [
                    pair for pair in pairs if pair[0] not in (x, y)]
            elif change < 0.5:  # mass moved off the grid
                x, p = rng.choice(pairs)
                pairs = [(z, q) for z, q in pairs if z != x] + [(x + F(1, 3), p)]
            elif change < 0.75:  # no mass on an extra prize
                pairs.append((params.prizes[-1] + 1, F(0)))
            alts.append(Alternative(alt_id, LotteryPayload(tuple(pairs))))
        rng.shuffle(alts)
        offenders = [alt.id for alt in alts if tuple(
            alt.payload.prob(x) for x in params.prizes) != named[alt.id]]
        got = _raised(lambda: risk.check_lotteries(params, alts))
        assert got == (None if not offenders else (ValidationError, (
            f"lottery {offenders[0]!r} differs from the params' lottery of that id")))
        verdicts[bool(offenders)] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_fit_allais_pins_the_footnote_values():
    ds = allais_dataset()
    params = fit_areu(ds)
    u_safe = params.utility(params.order.argmax(frozenset(("p1", "p2"))))
    u_risk = params.utility(params.order.argmax(frozenset(("q1", "q2"))))
    assert u_safe[1] > F(4, 5) > u_risk[1]
    assert verify_areu(params, ds) == []


@pytest.mark.parametrize("p1", [lot([(0, 1)]), lot([(3000, F(1, 2)), (5, F(1, 2))])])
def test_verify_rejects_data_whose_lottery_differs_from_the_params(p1):
    # another lottery on the grid, or mass on a prize off it
    params = fit_areu(allais_dataset())
    ds = lottery_dataset({**ALLAIS_LOTTERIES, "p1": p1}, [(("p1", "p2"), ("p1",))])
    with pytest.raises(ValidationError, match="lottery 'p1' differs from the params"):
        verify_areu(params, ds)
    unnamed = lottery_dataset({**ALLAIS_LOTTERIES, "r": p1}, [(("p1", "r"), ("p1",))])
    with pytest.raises(UnknownLottery):
        verify_areu(params, unnamed)


def test_fit_reverse_allais_is_infeasible():
    with pytest.raises(InfeasibleFit):
        fit_areu(reverse_allais_dataset())


def test_fit_round_trips_expected_utility_data():
    rng = random.Random(6)
    params = random_rho_monotone_areu(rng)
    flat = {name: params.utility(params.order.ranking[-1])
            for name, _ in params.lotteries}
    eu = AreuParams.build(params.prizes, dict(params.lotteries),
                          params.order, flat)
    names = [i for i, _ in eu.lotteries]
    ds = simulate_areu(eu, all_menus(names, 2, 3))
    fitted = fit_areu(ds)
    assert verify_areu(fitted, ds) == []
    used = {fitted.order.argmax(menu) for menu in ds.menus()}
    tables = {fitted.utility(r) for r in used}
    assert len(tables) == 1


def test_fit_round_trips_on_four_prizes():
    lots = {
        "safe": lot([(2, 1)]),
        "mid": lot([(1, F(1, 2)), (3, F(1, 2))]),
        "wide": lot([(0, F(1, 2)), (4, F(1, 2))]),
        "tilt": lot([(0, F(1, 4)), (3, F(3, 4))]),
    }
    u = {F(0): F(0), F(1): F(2, 5), F(2): F(3, 5), F(3): F(4, 5), F(4): F(1)}
    rows = []
    for menu in all_menus(lots, 2, 4):
        scores = {name: sum(p * u[x] for x, p in lots[name].probs)
                  for name in menu}
        best = max(scores.values())
        rows.append((menu, {n for n, s in scores.items() if s == best}))
    ds = lottery_dataset(lots, rows)
    fitted = fit_areu(ds)
    assert verify_areu(fitted, ds) == []


def test_fit_two_classes_on_four_prizes():
    # needs two utilities: x beats y alongside the sure anchor, y beats x
    # alone; the cross-class concavity coupling runs on the 4-prize path
    prizes = (F(0), F(1), F(2), F(3))
    vectors = {"anchor": vec4(0, 1, 0, 0),
               "x": vec4(0, F(6, 10), 0, F(4, 10)),
               "y": vec4(F(1, 10), 0, F(5, 10), F(4, 10))}
    lots = {k: lot([(p, m) for p, m in zip(prizes, v)])
            for k, v in vectors.items()}
    m1 = frozenset(("anchor", "x", "y"))
    m2 = frozenset(("x", "y"))
    ds = lottery_dataset(lots, [(m1, {"x"}), (m2, {"y"})])
    params = fit_areu(ds)
    assert verify_areu(params, ds) == []
    u_top = params.utility(params.order.argmax(m1))
    u_low = params.utility(params.order.argmax(m2))
    from refdep.risk import rho_vector
    assert all(a >= b for a, b in zip(rho_vector(prizes, u_top),
                                      rho_vector(prizes, u_low)))


def _four_prize_truth():
    """Two rho-ordered utilities on a 4-prize grid."""
    vectors = {"l0": vec4(0, F(1, 2), F(1, 2), 0), "l1": vec4(F(1, 4), 0, F(1, 4), F(1, 2)),
               "l2": vec4(0, 1, 0, 0), "l3": vec4(0, F(2, 3), F(1, 3), 0),
               "l4": vec4(F(1, 3), 0, F(2, 3), 0)}
    u_hi, u_lo = vec4(0, F(3, 8), F(3, 4), 1), vec4(0, F(1, 24), F(1, 4), 1)
    return AreuParams.build((F(0), F(1), F(2), F(3)), vectors,
                            ReferenceOrder(("l0", "l1", "l2", "l3", "l4")),
                            {"l0": u_hi, "l1": u_hi, "l2": u_hi, "l3": u_lo, "l4": u_lo})


def test_fit_pins_gap_ratios_when_the_relaxed_four_prize_fit_is_not_ordered(monkeypatch):
    # two rho-ordered utilities over all menus of size 2-3; the relaxed
    # per-class LP solves but orders concavity wrongly, so the fit reaches
    # the LP whose gap ratios are pinned to a rational grid
    truth = _four_prize_truth()
    prizes = truth.prizes
    ds = simulate_areu(truth, all_menus(truth.order.ranking, 2, 3))
    post_checks = []
    rho_monotone = risk._rho_monotone
    monkeypatch.setattr(risk, "_rho_monotone",
                        lambda *args: post_checks.append(rho_monotone(*args)) or post_checks[-1])
    params = fit_areu(ds)
    assert post_checks == [False, True]
    assert verify_areu(params, ds) == []
    rhos = [rho_vector(prizes, params.utility(x)) for x in params.order.ranking]
    assert all(a >= b for hi, lo in zip(rhos, rhos[1:]) for a, b in zip(hi, lo))
    assert params.to_json() == {
        "prizes": ["0", "1", "2", "3"],
        "lotteries": {"l0": ["0", "1/2", "1/2", "0"], "l1": ["1/4", "0", "1/4", "1/2"],
                      "l2": ["0", "1", "0", "0"], "l3": ["0", "2/3", "1/3", "0"],
                      "l4": ["1/3", "0", "2/3", "0"]},
        "order": ["l0", "l2", "l3", "l1", "l4"],
        "utilities": {"l0": ["0", "33/97", "66/97", "1"],
                      "l1": ["0", "190/4659", "6080/51249", "1"],
                      "l2": ["0", "19/83", "38/83", "1"],
                      "l3": ["0", "209/1553", "608/1553", "1"],
                      "l4": ["0", "190/4659", "6080/51249", "1"]},
    }


def _respects(ranking, relation):
    return all(ranking.index(a) < ranking.index(b) for a, b in relation)


def test_close_and_chains_match_brute_force_over_permutations():
    rng = random.Random(3)
    for _ in range(200):
        items = [f"x{i}" for i in range(rng.randint(1, 5))]
        relation = [tuple(rng.sample(items, 2)) for _ in range(rng.randint(0, 5))
                    if len(items) > 1]
        respecting = [p for p in permutations(items) if _respects(p, relation)]
        order = risk._close({x: frozenset() for x in items}, relation)
        assert (order is None) == (not respecting)
        if order is None:
            continue
        assert list(risk._chains(items, order)) == respecting
        subset = rng.sample(items, rng.randint(1, len(items)))
        restricted = sorted({tuple(x for x in p if x in subset) for p in respecting})
        assert list(risk._chains(subset, order)) == restricted


def test_fit_solves_the_one_utility_lp_once(monkeypatch):
    # on 3-prize grids the search yields only assignments the intervals
    # admit, so the four-prize data above, where seven assignments are
    # tried, is the one to show the shared LP is not rebuilt per assignment
    truth = _four_prize_truth()
    ds = simulate_areu(truth, all_menus(truth.order.ranking, 2, 3))
    tried, shared = [], []
    assignments, utility_problem = risk._reference_assignments, risk._utility_problem

    def counted_assignments(*args):
        for item in assignments(*args):
            tried.append(item)
            yield item

    def counted_problem(dataset, groups):
        shared.extend(label for label, _ in groups if label == "shared")
        return utility_problem(dataset, groups)

    monkeypatch.setattr(risk, "_reference_assignments", counted_assignments)
    monkeypatch.setattr(risk, "_utility_problem", counted_problem)
    fitted = fit_areu(ds)
    assert len(tried) == 7 and len(shared) <= 1
    assert verify_areu(fitted, ds) == []


def _random_rows(rng, count):
    """``count`` classes of random (a, c, relation) rows on a 3-prize grid.
    The coefficients are few, so a = 0, ties and bounds that meet at one
    point with open and closed ends are common."""
    values = [F(x, d) for x in range(-2, 3) for d in (1, 2)]
    return [[(rng.choice(values), rng.choice(values), rng.choice(("=", ">", ">")))
             for _ in range(rng.randint(0, 3))] for _ in range(count)]


def _chain_lp(classes):
    """The LP of a chain of classes of (a, c, relation) rows, safest first."""
    problem = LinearFeasibilityProblem()
    for k, rows in enumerate(classes):
        u = f"u{k}"
        problem.add({u: 1}, ">", 0)
        problem.add({u: 1}, "<", 1)
        for a, c, relation in rows:
            problem.add({u: a}, relation, -c)
        if k:
            problem.add({f"u{k - 1}": 1, u: -1}, ">=", 0)
    return solve_linear_feasibility(problem)


def _chain_admits(intervals):
    """Whether one value per interval exists, non-increasing down the list
    (safest class first): ``_order_admits`` on the list's own chain."""
    refs = range(len(intervals))
    return risk._order_admits(dict(zip(refs, intervals)), {k: refs[k + 1:] for k in refs})


# u = 1/2 as a row, and u > 1/2, u < 1/2 as open bounds that meet it
HALF, ABOVE_HALF, BELOW_HALF = (2, -1, "="), (2, -1, ">"), (-2, 1, ">")


@pytest.mark.parametrize("classes, feasible", [
    ([[HALF], [HALF]], True),
    ([[HALF], [ABOVE_HALF]], False),
    ([[BELOW_HALF], [HALF]], False),
    ([[ABOVE_HALF], [BELOW_HALF]], True),
    ([[HALF, ABOVE_HALF]], False),
    ([[HALF, (0, 0, "=")]], True),
    ([[(0, 0, ">")]], False),
    ([[(1, -1, ">")]], False),
    ([[(0, 1, ">"), BELOW_HALF]], True),
])
def test_sweep_at_bounds_that_meet_at_one_point(classes, feasible):
    assert _chain_admits(_intervals(classes)) == feasible == bool(_chain_lp(classes))


def test_sweep_agrees_with_the_lp_on_random_three_prize_chains():
    rng = random.Random(5)
    verdicts = []
    for _ in range(400):
        classes = _random_rows(rng, rng.randint(1, 4))
        verdict = _chain_admits(_intervals(classes))
        assert verdict == bool(_chain_lp(classes))
        verdicts.append(verdict)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_menu_intervals_agree_with_the_utility_lp():
    rng = random.Random(12)
    points = [(F(0), F(1), F(0)), (F(1, 2), F(0), F(1, 2)), (F(1, 4), F(1, 2), F(1, 4)),
              (F(0), F(1, 2), F(1, 2)), (F(1, 2), F(1, 2), F(0)), (F(1, 4), F(0), F(3, 4))]
    verdicts = []
    for _ in range(60):
        vectors = dict(zip("abcde", rng.sample(points, 5)))
        lots = {k: lot(zip((0, 1, 2), v)) for k, v in vectors.items()}
        menus = rng.sample(all_menus(vectors, 2, 3), 4)
        ds = lottery_dataset(lots, [(m, rng.sample(sorted(m), rng.randint(1, 2)))
                                    for m in menus])
        classes = {"hi": menus[:2], "lo": menus[2:]}
        verdict = _chain_admits([risk._rho_interval(ds, classes[r]) for r in ("hi", "lo")])
        problem = risk._utility_problem(ds, classes.items())
        problem.add({"u[hi][1]": 1, "u[lo][1]": -1}, ">=", 0)
        assert verdict == bool(solve_linear_feasibility(problem))
        verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_utility_lp_takes_each_class_row_once_in_first_seen_order():
    rng = random.Random(39)
    shared = Counter()
    for k in range(120):
        if k % 2:
            ds = integer_areu_data(rng, 4)
        else:
            params = random_rho_monotone_areu(rng, n_lotteries=rng.choice([4, 5, 6]))
            ds = simulate_areu(params, all_menus([i for i, _ in params.lotteries], 2, 3))
        menus = list(ds.menus())
        rng.shuffle(menus)
        labels = rng.sample("abcd", rng.randint(1, 3))
        groups = {label: [] for label in labels}
        for menu in menus:
            groups[rng.choice(labels)].append(menu)
        problem = risk._utility_problem(ds, groups.items())
        assert [tuple(c) for c in problem.constraints] == [
            (c.coeffs, c.relation, c.rhs)
            for c in utility_problem_by_menus(ds, groups.items()).constraints]
        for class_menus in groups.values():
            rows = [row for menu in class_menus for row in risk._menu_rows(ds)[menu]]
            shared[len(prize_grid(ds))] += len(rows) > len(set(rows))
    assert shared[3] >= 20 and shared[4] >= 20, shared


def test_ranked_class_intervals_agree_with_the_fraction_meet():
    rng = random.Random(23)
    seen = {"empty": 0, "interval": 0, "no menus": 0}
    for _ in range(30):
        ds = _fractional_lottery_dataset(rng, 3)
        menus = ds.menus()
        rows = {menu: [(diff[1], diff[2], relation)
                       for relation, diff in menu_rows_by_fractions(ds, menu)]
                for menu in menus}
        classes = [[]] + [rng.sample(menus, rng.randint(1, 4)) for _ in range(8)]
        for members in classes:
            lower, upper = risk._rho_interval(ds, members)
            oracle = interval_by_fractions(row for menu in members for row in rows[menu])
            assert (lower > upper) == (oracle is None)
            seen["no menus" if not members else "empty" if oracle is None else "interval"] += 1
        for hi, lo in permutations(classes[1:4], 2):
            ranked = [risk._rho_interval(ds, members) for members in (hi, lo)]
            unranked = _intervals([[row for menu in members for row in rows[menu]]
                                   for members in (hi, lo)])
            assert _chain_admits(ranked) == _chain_admits(unranked)
        fraction_keys = [interval_keys_by_fractions(rows[menu]) for menu in menus]
        per_menu = ds.cached("menu-intervals", dict)
        assert [per_menu[menu] for menu in menus] == ranks_of(fraction_keys)
    assert min(seen.values()) >= 20, seen

    # constant rows, "=" rows and empty intervals, on one scale per input
    edges = [[], [(0, 1, ">")], [(0, 0, "=")], [(0, -1, ">")], [(0, 0, ">")], [HALF],
             [HALF, ABOVE_HALF], [BELOW_HALF, (1, 0, "=")], [(F(1, 2), F(-1, 3), "=")]]
    inputs = [edges] + [_random_rows(rng, rng.randint(1, 5)) for _ in range(300)]
    kinds = Counter()
    for classes in inputs:
        fraction_keys = [interval_keys_by_fractions(rows) for rows in classes]
        assert ranks_of(_intervals(classes)) == ranks_of(fraction_keys)
        for rows, (lower, upper) in zip(classes, fraction_keys):
            kinds["empty" if lower > upper else "interval"] += 1
            kinds.update("constant" if a == 0 else "=" for a, _, relation in rows
                         if a == 0 or relation == "=")
    assert min(kinds[k] for k in ("empty", "interval", "constant", "=")) >= 50, kinds


def test_order_admits_exactly_when_some_chain_passes_the_sweep():
    rng = random.Random(9)
    verdicts = []
    for _ in range(300):
        items = [f"x{i}" for i in range(rng.randint(1, 5))]
        relation = [tuple(rng.sample(items, 2)) for _ in range(rng.randint(0, 4))
                    if len(items) > 1]
        order = risk._close({x: frozenset() for x in items}, relation)
        if order is None:
            continue
        refs = rng.sample(items, rng.randint(1, len(items)))
        intervals = dict(zip(refs, _intervals(_random_rows(rng, len(refs)))))
        some = any(_chain_admits([intervals[r] for r in chain])
                   for chain in risk._chains(refs, order))
        assert risk._order_admits(intervals, order) == some
        verdicts.append(some)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def _leaf_admitted(dataset, assignment, order):
    """Whether the u(1) intervals of a complete assignment's classes admit
    a chain of its closed ``order``."""
    classes = {}
    for menu, ref in assignment.items():
        classes.setdefault(ref, []).append(menu)
    return risk._order_admits(
        {ref: risk._rho_interval(dataset, menus) for ref, menus in classes.items()}, order)


def _fit_outcome(dataset):
    try:
        return fit_areu(dataset).to_json()
    except (AxiomFails, InfeasibleFit) as exc:
        return type(exc).__name__, str(exc)


def test_pruned_search_yields_the_admitted_leaves_of_the_unpruned_one(monkeypatch):
    # 3-prize data of 4-6 lotteries: clean, with a fifth of the choices
    # re-drawn, and with one choice re-drawn (some of which pass the
    # battery with no fit); the fit from the unpruned search skips each
    # leaf the intervals reject at every chain
    outcomes = Counter()
    for seed in range(1050):
        rng = random.Random(seed)
        params = random_rho_monotone_areu(rng, n_lotteries=rng.choice([4, 5, 6]))
        ds = simulate_areu(params, all_menus([i for i, _ in params.lotteries], 2, 3))
        if seed % 3 == 1:
            ds = perturbed(rng, ds)
        elif seed % 3 == 2:
            observations = dict(ds.observations)
            menu = rng.choice(sorted(observations, key=sorted))
            observations[menu] = frozenset(rng.sample(sorted(menu), rng.randint(1, len(menu))))
            ds = ChoiceDataset(ds.kind, ds.alternatives, observations)
        if len(prize_grid(ds)) != 3:
            continue
        forced = risk._close({x: frozenset() for x in ds.universe}, risk._forced_edges(ds))
        leaves = list(reference_assignments_unpruned(ds, forced))
        assert list(risk._reference_assignments(ds, forced)) == [
            leaf for leaf in leaves if _leaf_admitted(ds, *leaf)], seed
        got = _fit_outcome(ds)
        with monkeypatch.context() as patch:
            patch.setattr(risk, "_reference_assignments", reference_assignments_unpruned)
            assert _fit_outcome(ds) == got, seed
        outcomes[seed % 3, got[0] if isinstance(got, tuple) else "fit"] += 1
    assert sum(outcomes.values()) >= 1000
    assert outcomes[0, "fit"] >= 300 and outcomes[1, "fit"] + outcomes[2, "fit"] >= 50
    assert outcomes[1, "InfeasibleFit"] + outcomes[2, "InfeasibleFit"] >= 5


def test_twelve_lottery_fit_yields_one_assignment(monkeypatch):
    # the unpruned search reached 2,125 complete assignments here, over
    # 963,976 ``_close`` calls; menus the order already tops call none
    params = random_rho_monotone_areu(random.Random(12002), n_lotteries=12)
    ds = simulate_areu(params, all_menus([i for i, _ in params.lotteries], 2, 3))
    assert len(ds.menus()) == 286 and len(prize_grid(ds)) == 3
    tried, closes = [], []
    assignments, close = risk._reference_assignments, risk._close

    def counted_assignments(*args):
        for item in assignments(*args):
            tried.append(item)
            yield item

    monkeypatch.setattr(risk, "_reference_assignments", counted_assignments)
    monkeypatch.setattr(risk, "_close", lambda *args: closes.append(1) or close(*args))
    fitted = fit_areu(ds)
    assert verify_areu(fitted, ds) == []
    assert len(tried) == 1 and len(closes) == 2_017


def test_areu_battery_guards_the_reference_search(monkeypatch):
    # one re-drawn pair choice, {l4, l11} choosing the FOSD-dominated l4,
    # fails FOSD alone: with no battery ahead of it the search on these 286
    # menus ran past 10 s, so the fit must stop before its first ``_close``
    rng = random.Random(12019)
    params = random_rho_monotone_areu(rng, 12)
    clean = simulate_areu(params, all_menus([i for i, _ in params.lotteries], 2, 3))
    observations = dict(clean.observations)
    for menu in rng.sample(sorted(observations, key=menu_key), rng.randint(1, 4)):
        members = sorted(menu)
        observations[menu] = frozenset(rng.sample(members, rng.randint(1, len(members))))
    ds = ChoiceDataset(clean.kind, clean.alternatives, observations)
    assert len(ds.menus()) == 286 and len(prize_grid(ds)) == 3
    assert [m for m in ds.menus() if observations[m] != clean.observations[m]] == [
        frozenset({"l4", "l11"})]
    assert [(key, bool(witnesses)) for key, _, witnesses in risk.battery(ds)] == [
        ("fosd", True), ("risk_reference_dependence", False), ("avoidable_risk", False)]
    closes = []

    def counted_close(*args):
        # fail at once rather than run the search out
        closes.append(1)
        raise AssertionError("the search started before the battery rejected the data")

    monkeypatch.setattr(risk, "_close", counted_close)
    with pytest.raises(AxiomFails) as caught:
        fit_areu(ds)
    assert caught.value.axiom == "FOSD"
    assert [w.menus for w in caught.value.witnesses] == [(frozenset({"l4", "l11"}),)]
    assert closes == []


def test_reference_dependent_three_prize_fit_solves_one_lp(monkeypatch):
    # no one utility fits, and the unpruned search reaches eight complete
    # assignments the intervals reject before the ninth, the first they
    # admit; the pruned search yields that one alone, and the intervals
    # rule out every other chain, so the only LP is the certificate's
    params = random_rho_monotone_areu(random.Random(64), n_lotteries=5)
    ds = simulate_areu(params, all_menus([i for i, _ in params.lotteries], 2, 3))
    lower, upper = risk._rho_interval(ds, ds.menus())
    assert lower > upper
    forced = risk._close({x: frozenset() for x in ds.universe}, risk._forced_edges(ds))
    leaves = list(reference_assignments_unpruned(ds, forced))
    first = next(k for k, leaf in enumerate(leaves) if _leaf_admitted(ds, *leaf))
    assert first + 1 == 9
    tried, solves = [], []
    assignments, solve = risk._reference_assignments, risk.solve_linear_feasibility

    def counted_assignments(*args):
        for item in assignments(*args):
            tried.append(item)
            yield item

    monkeypatch.setattr(risk, "_reference_assignments", counted_assignments)
    monkeypatch.setattr(risk, "solve_linear_feasibility",
                        lambda problem: solves.append(problem) or solve(problem))
    fitted = fit_areu(ds)
    assert tried == leaves[first:first + 1] and len(solves) == 1
    assert verify_areu(fitted, ds) == []


def test_sweep_rejects_the_first_chain_of_two_unordered_classes(monkeypatch):
    # choosing x over the sure middle prize a puts u_a(1) below 1/2, and
    # choosing b over its spread y puts u_b(1) above it, so the one-utility
    # chain ["shared"] fails the sweep with no LP; nothing orders a against
    # b, so the id-order chain (a, b) comes next and fails it too, and
    # (b, a) is certified by the only LP
    lots = {"a": lot([(1, 1)]), "x": lot([(0, F(1, 2)), (2, F(1, 2))]),
            "b": lot([(1, F(1, 2)), (2, F(1, 2))]), "y": lot([(0, F(1, 4)), (2, F(3, 4))])}
    ds = lottery_dataset(lots, [(("a", "x"), ("x",)), (("b", "y"), ("b",))])
    events = []
    solve_chain, solve = risk._solve_chain, risk.solve_linear_feasibility

    def traced_chain(dataset, classes, chain):
        events.append(chain)
        solution = solve_chain(dataset, classes, chain)
        events.append(solution is not None)
        return solution

    monkeypatch.setattr(risk, "_solve_chain", traced_chain)
    monkeypatch.setattr(risk, "solve_linear_feasibility",
                        lambda problem: events.append("lp") or solve(problem))
    fitted = fit_areu(ds)
    assert events == [["shared"], False, ("a", "b"), False, ("b", "a"), "lp", True]
    assert fitted.order.ranking[:2] == ("b", "a")
    assert verify_areu(fitted, ds) == []


def vec4(w, a, b, c):
    return (F(w), F(a), F(b), F(c))


def test_a_three_prize_fit_walks_each_menu_s_revealed_rows_once(monkeypatch):
    """On the benchmark's seed-4 ``fit_lottery`` datasets (five lotteries,
    all 25 menus of size 2-4) each fit walks each menu's revealed rows
    once, 25 walks and 45 rows, which the u(1) intervals and every LP
    then share; walking them per reader took 50 walks and 90 rows."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    walks, rows, solves = [], [], []
    revealed, solve = risk.revealed_rows, risk.solve_linear_feasibility

    def counted(dataset, menu):
        walks.append(menu)
        for row in revealed(dataset, menu):
            rows.append(row)
            yield row

    monkeypatch.setattr(risk, "revealed_rows", counted)
    monkeypatch.setattr(risk, "solve_linear_feasibility",
                        lambda problem: solves.append(problem) or solve(problem))
    rng = random.Random(4)
    for _ in range(32):
        ds = dataset_from_dict(gen.areu_probe(rng, True).dataset)
        walks.clear()
        rows.clear()
        fit_areu(ds)
        assert len(prize_grid(ds)) == 3
        assert sorted(walks, key=sorted) == sorted(ds.menus(), key=sorted)
        assert (len(walks), len(rows)) == (25, 45)
    assert len(solves) == 32


def test_fit_rejects_dominated_choices():
    lots = {"good": lot([(4000, 1)]), "bad": lot([(0, 1)])}
    ds = lottery_dataset(lots, [(frozenset(lots), ["bad"])])
    with pytest.raises(AxiomFails):
        fit_areu(ds)


def test_fit_stops_at_the_first_failing_axiom(monkeypatch):
    calls = []
    check = risk.check_risk_reference_dependence
    monkeypatch.setattr(risk, "check_risk_reference_dependence",
                        lambda ds: calls.append(ds) or check(ds))
    lots = {"good": lot([(4000, 1)]), "bad": lot([(0, 1)])}
    ds = lottery_dataset(lots, [(frozenset(lots), ["bad"])])
    with pytest.raises(AxiomFails) as failure:
        fit_areu(ds)
    assert failure.value.axiom == "FOSD" and calls == []


def test_simulated_fit_round_trip_on_random_instances():
    rng = random.Random(8)
    for _ in range(5):
        params, menus = areu_instance(rng, distinct=rng.random() < 0.5)
        small = [m for m in menus if len(m) <= 3][:20]
        ds = simulate_areu(params, small)
        fitted = fit_areu(ds)
        assert verify_areu(fitted, ds) == []


def test_fit_certifies_every_dilution_respecting_simulation():
    rng = random.Random(14)
    for _ in range(15):
        params = random_rho_monotone_areu(rng, n_lotteries=rng.choice([4, 5]))
        names = [i for i, _ in params.lotteries]
        ds = simulate_areu(params, all_menus(names, 2, 3))
        fitted = fit_areu(ds)
        assert verify_areu(fitted, ds) == []


# -- simulation and the triple-menu prediction --------------------------------


def warp_prediction_params():
    prizes = PRIZES
    lots_vec = {
        "p1": vec(0, 1, 0),
        "q1": vec(F(1, 10), F(7, 10), F(2, 10)),
        "q2": vec(F(3, 10), F(3, 10), F(4, 10)),
    }
    order = ReferenceOrder(("p1", "q1", "q2"))
    utilities = {"p1": (F(0), F(3, 5), F(1)),
                 "q1": (F(0), F(2, 5), F(1)),
                 "q2": (F(0), F(2, 5), F(1))}
    return AreuParams.build(prizes, lots_vec, order, utilities)


def test_triple_menu_simulation_reproduces_the_warp_violation():
    params = warp_prediction_params()
    triple = frozenset(("p1", "q1", "q2"))
    pair = frozenset(("q1", "q2"))
    ds = simulate_areu(params, [triple, pair])
    assert ds.observations[triple] == frozenset(("q1",))
    assert ds.observations[pair] == frozenset(("q2",))
    assert warp_over(ds, ds.menus()) != []


def test_constant_utility_simulation_is_independence_clean():
    params = warp_prediction_params()
    flat = {name: params.utility("q1") for name, _ in params.lotteries}
    eu = AreuParams.build(params.prizes, dict(params.lotteries),
                          params.order, flat)
    ds = simulate_areu(eu, all_menus(("p1", "q1", "q2"), 2, 3))
    assert independence_over(ds, ds.menus()) == []
    assert warp_over(ds, ds.menus()) == []


# -- expansion clauses --------------------------------------------------------


def test_expansion_checks_match_their_loops():
    """On 300 perturbed lottery datasets and a random sub-family of each,
    and on 300 perturbed split datasets for fairness, the checks give
    the oracles' witness lists in their order; each reports on some
    seed."""
    reported = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        ds = perturbed(rng, areu_data(rng))
        family = [m for m in ds.menus() if rng.random() < 0.6]
        cases = [(check_avoidable_risk, avoidable_risk_by_loop, (ds,)),
                 (check_avoidable_risk, avoidable_risk_by_loop, (restrict(ds, family),))]
        splits = perturbed(rng, fspu_data(rng))
        cases.append((check_fairness, fairness_by_fractions, (splits,)))
        for check, oracle, args in cases:
            witnesses = check(*args)
            assert witnesses == oracle(*args), (check.__name__, seed)
            reported[check.__name__] += bool(witnesses)
    assert set(reported) == {"check_avoidable_risk", "check_fairness"}
    assert all(reported.values()), reported


# -- triangle ----------------------------------------------------------------


def triangle_grid(k):
    points = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            points[f"g{i}_{j}"] = (F(i, k), F(k - i - j, k), F(j, k))
    return points


def fan_out_params(prizes, k):
    points = triangle_grid(k)
    ranking = sorted(points, key=lambda a: (points[a][0], -points[a][2], a))
    neutral = (prizes[1] - prizes[0]) / (prizes[2] - prizes[0])
    n = len(ranking)
    utilities = {alt: (F(0), neutral + (1 - neutral) * F(n - rank, n + 1), F(1))
                 for rank, alt in enumerate(ranking)}
    return AreuParams.build(prizes, points, ReferenceOrder(tuple(ranking)),
                            utilities)


def test_fanning_fan_out_fan_in_and_neutral():
    prizes = (F(0), F(1), F(3))
    k = 6
    params = fan_out_params(prizes, k)
    report = fanning_classify(params, prizes, k)
    assert report.category is Fanning.RISK_AVERSE_FAN_OUT

    points = triangle_grid(k)
    # the lotteries that pay the middle prize and never the best rank
    # first and are more concave; no spread or worst-prize dilution ranks
    # above its source, and every u(1) is below the neutral 1/3
    neutral = F(1, 3)
    safe = {alt: vec[2] == 0 and vec[1] > 0 for alt, vec in points.items()}
    ranking = sorted(points, key=lambda a: (not safe[a], a))
    utilities = {alt: (F(0), F(1, 4) if safe[alt] else F(1, 6), F(1)) for alt in points}
    fan_in = AreuParams.build(prizes, points, ReferenceOrder(tuple(ranking)), utilities)
    report = fanning_classify(fan_in, prizes, k)
    assert report.category is Fanning.RISK_LOVING_FAN_IN
    assert {s.slope for s in report.samples} == {F(1, 5), F(1, 3)}

    flat = AreuParams.build(
        prizes, points,
        ReferenceOrder(tuple(sorted(points, key=lambda a: (points[a][0],
                                                           -points[a][2], a)))),
        {alt: (F(0), neutral, F(1)) for alt in points})
    assert fanning_classify(flat, prizes, k).category is Fanning.RISK_NEUTRAL


def test_fanning_mixed_violation():
    prizes = (F(0), F(1), F(3))
    k = 4
    points = triangle_grid(k)
    ranking = sorted(points, key=lambda a: (points[a][0], -points[a][2], a))
    neutral = F(1, 3)
    # one side above neutral, the other below: mixed attitude
    utilities = {}
    n = len(ranking)
    for rank, alt in enumerate(ranking):
        off = F(n - 2 * rank, 4 * n)
        utilities[alt] = (F(0), neutral + off, F(1))
    params = AreuParams.build(prizes, points, ReferenceOrder(tuple(ranking)),
                              utilities)
    assert fanning_classify(params, prizes, k).category is Fanning.MIXED_VIOLATION


def test_triangle_rows_cover_the_grid():
    prizes = (F(0), F(1), F(3))
    params = fan_out_params(prizes, 4)
    rows = triangle_rows(params, prizes, 4)
    assert len(rows) == 15
    assert all(len(r) == 4 for r in rows)


# -- linkage -----------------------------------------------------------------


def test_linkage_flags_both_on_allais():
    report = linkage_report_risk(allais_dataset())
    assert report["independence"] != []
    # the two Allais menus are not nested, so WARP alone cannot see it
    assert report["warp"] == []


def test_linkage_fails_both_on_allais_plus_triple_data():
    prizes = PRIZES
    lots_vec = {
        "p1": vec(0, 1, 0),
        "p2": vec(F(1, 2), 0, F(1, 2)),
        "q1": vec(F(1, 10), F(7, 10), F(2, 10)),
        "q2": vec(F(3, 10), F(3, 10), F(4, 10)),
    }
    order = ReferenceOrder(("p1", "q1", "q2", "p2"))  # p2 spreads everything
    u_hi = (F(0), F(3, 5), F(1))
    u_lo = (F(0), F(2, 5), F(1))
    params = AreuParams.build(prizes, lots_vec, order,
                              {"p1": u_hi, "p2": u_lo, "q1": u_lo, "q2": u_lo})
    menus = [frozenset(("p1", "p2")), frozenset(("q1", "q2")),
             frozenset(("p1", "q1", "q2")), frozenset(("p1", "q1"))]
    ds = simulate_areu(params, menus)
    report = linkage_report_risk(ds)
    assert report["warp"] != [] and report["independence"] != []


def test_linkage_clean_on_eu_data():
    params = random_rho_monotone_areu(random.Random(21))
    flat = {name: params.utility(params.order.ranking[0])
            for name, _ in params.lotteries}
    eu = AreuParams.build(params.prizes, dict(params.lotteries),
                          params.order, flat)
    ds = simulate_areu(eu, all_menus([i for i, _ in eu.lotteries], 2, 3))
    report = linkage_report_risk(ds)
    assert report["warp"] == [] and report["independence"] == []
