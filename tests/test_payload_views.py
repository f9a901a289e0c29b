"""The integer payment and split views against ``Fraction`` oracles.

Shift correspondences, the earliest-payment and most-balanced Psi maps,
and the PBDU and FSPU LPs read integer payloads.  The oracles in
``helpers`` read the ``Fraction`` payloads as the code did before the
views.  The data have denominators 1-6, equal times and equal Gini
levels.
"""

import math
import random
from fractions import Fraction as F

import pytest

from refdep import social, timepref
from refdep.choices import integer_payloads, shift_correspondences
from refdep.feasibility import solve_linear_feasibility

from helpers import (
    earliest_payments_by_fractions,
    fractional_fspu_data,
    fractional_pbdu_data,
    fspu_problems_by_fractions,
    most_balanced_by_fractions,
    pbdu_problems_by_fractions,
    shift_correspondences_by_fractions,
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

