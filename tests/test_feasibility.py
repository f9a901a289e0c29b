import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from refdep import feasibility
from refdep.exceptions import RefdepError
from refdep.feasibility import (
    Feasible,
    Infeasible,
    LinearFeasibilityProblem,
    _simplex_maximize,
    solve_linear_feasibility,
)

from helpers import fraction_simplex_maximize


def solve(rows):
    problem = LinearFeasibilityProblem()
    for coeffs, rel, rhs in rows:
        problem.add(coeffs, rel, rhs)
    return solve_linear_feasibility(problem)


def test_open_interval_is_feasible_strictly_inside():
    result = solve([({"x": 1}, ">", 0), ({"x": 1}, "<", 1)])
    assert isinstance(result, Feasible)
    assert 0 < result.assignment["x"] < 1


def test_contradiction_is_infeasible():
    assert isinstance(solve([({"x": 1}, ">=", 1), ({"x": 1}, "<=", 0)]), Infeasible)


def test_allais_normalized_system_is_feasible():
    result = solve([
        ({"uA": 1}, ">", F(4, 5)), ({"uA": 1}, "<", 1), ({"uA": 1}, ">", 0),
        ({"uB": 1}, "<", F(4, 5)), ({"uB": 1}, ">", 0), ({"uB": 1}, "<", 1),
    ])
    assert isinstance(result, Feasible)
    assert result.assignment["uA"] > F(4, 5) > result.assignment["uB"]


def test_boundary_strictness_is_infeasible():
    assert isinstance(solve([({"x": 1}, "<=", 1), ({"x": 1}, ">", 1)]), Infeasible)


def test_negative_region_needs_phase_one():
    result = solve([({"x": 1}, "<=", -3), ({"x": 1}, ">=", -10)])
    assert isinstance(result, Feasible)
    assert -10 <= result.assignment["x"] <= -3


LE, GE = (2, -2, -1, 1), (-2, 2, 1, -1)  # 2x - y over columns x+, x-, y+, y-
CAP = ((0, 0, 0, 0, 1), 1)                 # the gap column, capped at 1


@pytest.mark.parametrize("relation, rows, objective", [
    ("<=", [(LE, 3)], (0, 0, 0, 0)),
    (">=", [(GE, -3)], (0, 0, 0, 0)),
    ("=", [(LE, 3), (GE, -3)], (0, 0, 0, 0)),
    ("<", [((*LE, 1), 3), CAP], (0, 0, 0, 0, 1)),
    (">", [((*GE, 1), -3), CAP], (0, 0, 0, 0, 1)),
])
def test_each_relation_hands_the_simplex_its_le_rows(monkeypatch, relation, rows, objective):
    seen = []

    def record(rows, objective):
        seen.append(([(tuple(vec), bound) for vec, bound in rows], tuple(objective)))
        return _simplex_maximize(rows, objective)

    monkeypatch.setattr(feasibility, "_simplex_maximize", record)
    assert solve([({"x": 2, "y": -1}, relation, 3)])
    assert seen == [(rows, objective)]


def test_determinism():
    rows = [({"x": 1, "y": 2}, "<=", 7), ({"x": 1, "y": -1}, ">", 0),
            ({"y": 1}, ">", F(1, 3))]
    assert solve(rows) == solve(rows)


# -- random cross-check against an elimination oracle -------------------


def _eliminate_feasible(rows):
    """Fourier-Motzkin style oracle for <=/< systems in x and y."""
    # project y away: rows are (a, b, rel, c) meaning a*x + b*y rel c
    pure_x = []
    uppers, lowers = [], []
    for a, b, rel, c in rows:
        if b == 0:
            pure_x.append((a, rel, c))
        elif b > 0:
            uppers.append((F(a) / b, rel, F(c) / b))   # y rel c/b - (a/b) x
        else:
            lowers.append((F(a) / b, rel, F(c) / b))
    derived = list(pure_x)
    for (au, relu, cu) in uppers:
        for (al, rell, cl) in lowers:
            strict = relu == "<" or rell == "<"
            # cl - al*x <= y <= cu - au*x  =>  (au - al) x <= cu - cl
            derived.append((au - al, "<" if strict else "<=", cu - cl))
    # one-variable system
    lo, lo_strict = None, False
    hi, hi_strict = None, False
    for a, rel, c in derived:
        if a == 0:
            if c < 0 or (rel == "<" and c == 0):
                return False
            continue
        bound = F(c) / a
        if a > 0:
            if hi is None or bound < hi or (bound == hi and rel == "<"):
                hi, hi_strict = bound, rel == "<"
        else:
            if lo is None or bound > lo or (bound == lo and rel == "<"):
                lo, lo_strict = bound, rel == "<"
    if lo is None or hi is None:
        return True
    if lo < hi:
        return True
    if lo == hi and not (lo_strict or hi_strict):
        return True
    return False


coeff = st.integers(min_value=-3, max_value=3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coeff, coeff,
                          st.sampled_from(["<=", "<"]),
                          st.integers(min_value=-4, max_value=4)),
                min_size=1, max_size=6))
def test_two_variable_systems_match_elimination_oracle(rows):
    problem = LinearFeasibilityProblem()
    for a, b, rel, c in rows:
        problem.add({"x": a, "y": b}, rel, c)
    result = solve_linear_feasibility(problem)
    assert bool(result) == _eliminate_feasible(rows)
    if result:
        for con in problem.constraints:
            assert con.holds(result.assignment)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coeff, coeff,
                          st.sampled_from(["<=", "<", ">=", ">", "="]),
                          st.integers(min_value=-4, max_value=4)),
                min_size=1, max_size=7))
def test_any_returned_assignment_satisfies_every_constraint(rows):
    problem = LinearFeasibilityProblem()
    for a, b, rel, c in rows:
        problem.add({"x": a, "y": b}, rel, c)
    result = solve_linear_feasibility(problem)
    if result:
        for con in problem.constraints:
            assert con.holds(result.assignment)


# -- the integer tableau against the Fraction simplex --------------------

_ENTRIES = (0, 0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4), F(-7, 6))


def _random_system(rng):
    """Random ``(rows, objective)`` for ``_simplex_maximize``: negative
    bounds (phase 1), zero columns, equality pairs, duplicated and scaled
    rows with zero bounds (degenerate ties), and objectives with or
    without a cap."""
    n = rng.randint(1, 5)
    zero_columns = {j for j in range(n) if rng.random() < 0.2}

    def entry(j):
        return F(0) if j in zero_columns else F(rng.choice(_ENTRIES))

    rows = []
    for _ in range(rng.randint(0, 6)):
        vec = [entry(j) for j in range(n)]
        bound = F(rng.randint(-2, 6), rng.choice((1, 2, 3)))
        rows.append((vec, bound))
        shape = rng.random()
        if shape < 0.15:
            rows.append(([-x for x in vec], -bound))
        elif shape < 0.3:
            k = F(rng.choice((1, 2, F(1, 3))))
            rows.append(([k * x for x in vec], k * bound))
        elif shape < 0.4:
            rows.append((vec, F(0)))
    rng.shuffle(rows)
    if rng.random() < 0.5:
        j = rng.randrange(n)
        cap = [F(0)] * n
        cap[j] = F(1)
        rows.append((cap, F(rng.choice((1, 2, F(1, 2))))))
    objective = [F(rng.choice((0, 0, 1, -1, F(1, 2), 3))) for _ in range(n)]
    return rows, objective


def _outcome(solve, rows, objective):
    try:
        return solve(rows, objective)
    except RefdepError as exc:
        return str(exc)


def test_integer_tableau_matches_the_fraction_simplex_on_random_systems():
    rng = random.Random(20261018)
    kinds = Counter()
    for _ in range(3000):
        rows, objective = _random_system(rng)
        expected = _outcome(fraction_simplex_maximize, rows, objective)
        assert _outcome(_simplex_maximize, rows, objective) == expected, (rows, objective)
        phase_one = any(bound < 0 for _, bound in rows)
        kinds["unbounded" if isinstance(expected, str) else
              "infeasible" if expected is None else
              "phase 1" if phase_one else "feasible"] += 1
    assert min(kinds[k] for k in ("unbounded", "infeasible", "phase 1", "feasible")) >= 100, kinds
