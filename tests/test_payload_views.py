"""The integer payment and split views against ``Fraction`` oracles.

Shift correspondences, the earliest-payment and most-balanced Psi maps,
the PBDU and FSPU axiom checks and LPs read integer payloads.  The
oracles in ``helpers`` read the ``Fraction`` payloads as the code did
before the views.  The data have denominators 1-6, equal times and
equal Gini levels.
"""

import math
import random
from fractions import Fraction as F

import pytest

from refdep import social, timepref
from refdep.choices import integer_payloads, shift_correspondences
from refdep.feasibility import solve_linear_feasibility

from refdep.choices import DATED_PAYMENT, INCOME_SPLIT, Alternative, validate_dataset

from helpers import (
    all_menus,
    earliest_payments_by_fractions,
    fairness_by_fractions,
    fractional_fspu_data,
    fractional_pbdu_data,
    fspu_problems_by_fractions,
    most_balanced_by_fractions,
    outcome_monotonicity_impatience_by_fractions,
    pay,
    pbdu_problems_by_fractions,
    perturbed,
    present_bias_by_fractions,
    shift_correspondences_by_fractions,
    social_monotonicity_by_fractions,
    split,
)

# (amount or own-income denominator, time or other-income denominator)
DENOMINATORS = [(d, d) for d in range(1, 7)] + [(2, 3), (4, 6), (5, 1), (1, 6)]
# model -> (draw, field held, field shifted, allowed shift, label)
SHIFTS = {
    "pbdu": (fractional_pbdu_data, "amount", "time", lambda d: d > 0, "delay"),
    "fspu": (fractional_fspu_data, "other", "own", lambda d: d != 0, "own-payment shift"),
}


def _datasets(model):
    draw = SHIFTS[model][0]
    for dens in DENOMINATORS:
        for seed in range(3):
            yield draw(random.Random(seed), *dens)


@pytest.mark.parametrize("model", sorted(SHIFTS))
def test_integer_payloads_give_the_payloads_back(model):
    for ds in _datasets(model):
        ints = integer_payloads(ds)
        for fields in (("amount",), ("time",)) if model == "pbdu" else (("own", "other"),):
            dens = {ints[f][0] for f in fields}
            assert dens == {math.lcm(*(getattr(ds.payload(alt), f).denominator
                                       for alt in ds.universe for f in fields))}
            for f in fields:
                den, nums = ints[f]
                assert all(F(nums[alt], den) == getattr(ds.payload(alt), f)
                           for alt in ds.universe)


@pytest.mark.parametrize("model", sorted(SHIFTS))
def test_shift_correspondences_match_the_fraction_oracle(model):
    _, fixed, moved, allowed, label = SHIFTS[model]
    fractional = 0
    for ds in _datasets(model):
        want = shift_correspondences_by_fractions(ds, fixed, moved, allowed, label)
        assert shift_correspondences(ds, fixed, moved, allowed, label) == want
        fractional += any("/" in narrative for *_, narrative in want)
    assert fractional  # some shift is not an integer


def test_psi_maps_match_the_fraction_oracles():
    ties = 0
    for model, psi, oracle in (("pbdu", timepref.earliest_payments, earliest_payments_by_fractions),
                               ("fspu", social.most_balanced, most_balanced_by_fractions)):
        for ds in _datasets(model):
            for menu in (*ds.menus(), ds.universe):
                admissible = psi(ds, menu)
                assert admissible == oracle(ds, menu)
                ties += len(admissible) > 1
    assert ties  # equal times and equal Gini levels stay ties


@pytest.mark.parametrize("model", sorted(SHIFTS))
def test_lps_are_the_fraction_lps_times_one_denominator(model, monkeypatch):
    """Each LP the fitter solves has the variables of the ``Fraction``
    build and its rows times the problem's denominator, and the simplex
    returns the same vertex for both."""
    module, fit, oracle, field = {
        "pbdu": (timepref, timepref.fit_pbdu, pbdu_problems_by_fractions, "time"),
        "fspu": (social, social.fit_fspu, fspu_problems_by_fractions, "own"),
    }[model]
    solved = []

    def solve(problem):
        solved.append(problem)
        return solve_linear_feasibility(problem)

    monkeypatch.setattr(module, "solve_linear_feasibility", solve)
    per_reference = 0
    for ds in _datasets(model):
        solved.clear()
        fit(ds)
        den = integer_payloads(ds)[field][0]
        per_reference += len(solved) == 2
        for problem, reference in zip(solved, oracle(ds)):
            assert problem.denominator == den
            assert problem.variables() == reference.variables()
            assert [(c.relation, c.coeffs, c.rhs) for c in problem.constraints] == [
                (c.relation, tuple((v, den * x) for v, x in c.coeffs), den * c.rhs)
                for c in reference.constraints]
            assert solve_linear_feasibility(problem) == solve_linear_feasibility(reference)
    assert per_reference  # the per-reference LP is reached too



def _random_choices(rng, kind, payloads, floor=None):
    """Every menu of size 2-3 over ``payloads`` (id -> payload) choosing
    a random nonempty subset, the whole menu one time in three."""
    observations = {}
    for menu in all_menus(sorted(payloads), 2, 3):
        members = sorted(menu)
        observations[menu] = menu if rng.random() < 1 / 3 else frozenset(
            rng.sample(members, rng.randint(1, len(members))))
    return validate_dataset(kind, [Alternative(k, v) for k, v in payloads.items()],
                            observations, floor=floor)


def _affine_triples(rng, den):
    """Three triples of dated payments with the same amounts in time order:
    the second's times are s*t + o of the first's with s in (0, 1) not an
    integer reciprocal, the third's middle time is off that map, and the
    first and second choose as present bias's triple clause forbids."""
    amounts = [F(rng.randint(1, 4 * den), den) for _ in range(3)]
    times = [F(rng.randint(0, 2 * den), den)]
    for _ in range(2):
        times.append(times[-1] + F(rng.randint(1, 3 * den), den))
    m = rng.randint(3, 6)
    s = F(rng.randint(2, m - 1), m)
    o = F(rng.randint(0, 2 * den), den)
    shrunk = [s * t + o for t in times]
    off = [shrunk[0], (shrunk[0] + shrunk[1]) / 2, shrunk[2]]
    payloads = {f"{tag}{i}": pay(a, t) for tag, line in (("a", times), ("b", shrunk), ("c", off))
                for i, (a, t) in enumerate(zip(amounts, line))}
    ds = _random_choices(rng, DATED_PAYMENT, payloads)
    observations = {**ds.observations, frozenset(("a0", "a1", "a2")): frozenset(("a0", "a1", "a2")),
                    frozenset(("b0", "b1", "b2")): frozenset(("b0", "b2"))}
    return validate_dataset(DATED_PAYMENT, ds.alternatives.values(), observations)


def _payment_grid(rng, den):
    """Six dated payments over ``den``: two, the same two delayed by a
    common d (not an integer when den > 1) and two more, repeats allowed."""
    def cell():
        return F(rng.randint(den, 3 * den), den), F(rng.randint(0, 2 * den), den)
    d = F(rng.choice([k for k in range(1, 2 * den + 1) if den == 1 or k % den]), den)
    pairs = [cell(), cell()]
    cells = [*pairs, *((a, t + d) for a, t in pairs), cell(), cell()]
    return _random_choices(rng, DATED_PAYMENT, {f"p{i}": pay(a, t)
                                                for i, (a, t) in enumerate(cells)})


def _split_grid(rng, den):
    """Six income splits on a small grid over ``den``, repeats allowed."""
    return _random_choices(rng, INCOME_SPLIT, {
        f"s{i}": split(F(rng.randint(den, 3 * den), den), F(rng.randint(den, 3 * den), den))
        for i in range(6)}, floor=F(1))


# model -> (checks read off the integer view, their Fraction oracles)
CHECKS = {
    "pbdu": ((timepref.check_outcome_monotonicity_impatience, timepref.check_present_bias),
             (outcome_monotonicity_impatience_by_fractions, present_bias_by_fractions)),
    "fspu": ((social.check_social_monotonicity, social.check_fairness),
             (social_monotonicity_by_fractions, fairness_by_fractions)),
}
GRIDS = {"pbdu": (_payment_grid, _affine_triples), "fspu": (_split_grid,)}


def _check_cases(model):
    for ds in _datasets(model):
        yield ds
        yield perturbed(random.Random(len(ds.observations)), ds)
    for den in range(1, 7):
        for seed in range(3):
            for grid in GRIDS[model]:
                yield grid(random.Random(seed), den)


@pytest.mark.parametrize("model", sorted(CHECKS))
def test_axiom_checks_match_the_fraction_oracles(model):
    """Equal witness lists, narratives included; every check reports on
    some data and passes on other data."""
    checks, oracles = CHECKS[model]
    failed = {check.__name__: 0 for check in checks}
    cases = list(_check_cases(model))
    fractional = 0
    for ds in cases:
        for check, oracle in zip(checks, oracles):
            witnesses = check(ds)
            assert witnesses == oracle(ds), (check.__name__, ds.observations)
            failed[check.__name__] += bool(witnesses)
            fractional += any("/" in w.narrative for w in witnesses)
    assert fractional  # a narrative shows a non-integer amount or delay
    assert all(0 < count < len(cases) for count in failed.values()), failed


def test_present_bias_triple_clause_fires_on_fractional_rescalings():
    fired = 0
    for den in range(1, 7):
        for seed in range(3):
            ds = _affine_triples(random.Random(seed), den)
            witnesses = timepref.check_present_bias(ds)
            assert witnesses == present_bias_by_fractions(ds)
            fired += any(w.menus == (frozenset(("a0", "a1", "a2")), frozenset(("b0", "b1", "b2")))
                         for w in witnesses)
            assert not any(frozenset(("c0", "c1", "c2")) in w.menus for w in witnesses
                           if len(w.menus[0]) == 3)
    assert fired == 18
