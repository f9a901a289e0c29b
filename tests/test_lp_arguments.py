"""The simplex of every LP fitter gets the arguments of the entry-by-entry
builder.

``constraint`` keeps an all-int row as it is given, ``LinearFeasibilityProblem``
stores each row as one tuple, and the AREU fitter reads each menu's rows
from one per-dataset table and hands each distinct row over once.  None
of that may change what ``feasibility._simplex_maximize`` receives.  On
300 seeded datasets per LP fitter (3-prize AREU, 4-prize AREU with the
pinned-grid LPs, PBDU, FSPU) each LP's (rows, objective) equals, value
and type, the one the builder of ``tests/helpers.py`` makes: for AREU
each chain's LPs rebuilt from the menus' revealed rows walked anew, for
PBDU and FSPU the same ``add`` calls replayed.
"""

import random
from collections import Counter

import pytest

from refdep import feasibility, risk, social, timepref
from refdep.exceptions import RefdepError

from helpers import (
    ProblemByDataclass,
    areu_data,
    chain_lps_by_constraints,
    fractional_fspu_data,
    fractional_pbdu_data,
    fspu_data,
    integer_areu_data,
    integer_fspu_data,
    integer_pbdu_data,
    pbdu_data,
    simplex_arguments_by_constraints,
    two_utility_four_prize_data,
)


def _typed(arguments):
    """(rows, objective) with each number as (type name, value)."""
    rows, objective = arguments
    return ([([(type(x).__name__, x) for x in vec], (type(bound).__name__, bound))
             for vec, bound in rows], [(type(x).__name__, x) for x in objective])


def _recording_simplex(monkeypatch):
    """The list each ``_simplex_maximize`` call appends its typed arguments to."""
    seen, simplex = [], feasibility._simplex_maximize

    def recorded(rows, objective):
        seen.append(_typed((rows, objective)))
        return simplex(rows, objective)

    monkeypatch.setattr(feasibility, "_simplex_maximize", recorded)
    return seen


def _fit_all(fit, datasets, kinds):
    for dataset in datasets:
        try:
            fit(dataset)
        except RefdepError:
            kinds["no fit"] += 1


def _draws(seed, makers, count=300):
    rng = random.Random(seed)
    return (makers[k % len(makers)](rng) for k in range(count))


def _check_areu_lps(monkeypatch, datasets):
    """Fit each dataset; every chain's LPs against ``chain_lps_by_constraints``."""
    seen, solve_chain, kinds = _recording_simplex(monkeypatch), risk._solve_chain, Counter()

    def checked(dataset, classes, chain):
        seen.clear()
        result = solve_chain(dataset, classes, chain)
        if seen:  # the chain passed the 3-prize interval test
            expected = chain_lps_by_constraints(dataset, classes, chain)
            assert seen == [_typed(arguments) for arguments in expected]
            kinds["pinned chains" if len(seen) > 1 else "chains"] += 1
            kinds["LPs"] += len(seen)
        return result

    monkeypatch.setattr(risk, "_solve_chain", checked)
    _fit_all(risk.fit_areu, datasets, kinds)
    return kinds


def test_three_prize_areu_lps(monkeypatch):
    kinds = _check_areu_lps(monkeypatch, _draws(
        40, [areu_data, lambda rng: integer_areu_data(rng, 3)]))
    assert kinds["chains"] >= 300 and not kinds["pinned chains"], kinds


def test_four_prize_areu_lps_with_pinned_gap_ratios(monkeypatch):
    kinds = _check_areu_lps(monkeypatch, _draws(
        41, [two_utility_four_prize_data, lambda rng: integer_areu_data(rng, 4)]))
    assert kinds["chains"] >= 300 and kinds["pinned chains"] >= 100, kinds


@pytest.mark.parametrize("module, fit, makers", [
    (timepref, timepref.fit_pbdu, [pbdu_data, integer_pbdu_data, fractional_pbdu_data]),
    (social, social.fit_fspu, [fspu_data, integer_fspu_data, fractional_fspu_data]),
], ids=["pbdu", "fspu"])
def test_pbdu_and_fspu_lps(monkeypatch, module, fit, makers):
    """Each problem's ``add`` calls replayed through the old builder."""
    seen, kinds = _recording_simplex(monkeypatch), Counter()
    add = feasibility.LinearFeasibilityProblem.add

    def logged_add(problem, coeffs, relation, rhs):
        problem.__dict__.setdefault("calls", []).append((dict(coeffs), relation, rhs))
        add(problem, coeffs, relation, rhs)

    solve = module.solve_linear_feasibility

    def checked(problem):
        expected = ProblemByDataclass(problem.denominator)
        for call in problem.calls:
            expected.add(*call)
        seen.clear()
        result = solve(problem)
        assert seen == [_typed(simplex_arguments_by_constraints(expected))]
        kinds["LPs"] += 1
        return result

    monkeypatch.setattr(feasibility.LinearFeasibilityProblem, "add", logged_add)
    monkeypatch.setattr(module, "solve_linear_feasibility", checked)
    _fit_all(fit, _draws(42, makers), kinds)
    assert kinds["LPs"] >= 300 and not kinds["no fit"], kinds
