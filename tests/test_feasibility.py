import math
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

from helpers import fraction_simplex_maximize, holds


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


def test_adding_one_row_twice_keeps_one_constraint():
    problem = LinearFeasibilityProblem()
    problem.add({"x": 1, "y": -1}, ">", 0)
    problem.add({"y": F(-1), "x": 1, "z": 0}, ">", 0)  # the same row, spelled otherwise
    problem.add({"x": 1, "y": -1}, ">=", 0)
    problem.add({"x": 1, "y": -1}, ">", 0)
    assert [(c.coeffs, c.relation) for c in problem.constraints] == [
        ((("x", 1), ("y", -1)), ">"), ((("x", 1), ("y", -1)), ">=")]


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
            assert holds(con, result.assignment)


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
            assert holds(con, result.assignment)


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


_COEFFS = (0, 0, 1, -1, 2, -2, 3, -4, 6, F(1, 2), F(-3, 2))


def _lp_shaped_system(rng):
    """Random ``(rows, objective)`` as ``solve_linear_feasibility`` builds
    them: each free variable a negated column pair, mostly with the gap
    column over a denominator D and its cap (dropped now and then, so the
    gap can run away), rows repeated at x2, x3 and x1/2 or negated, and
    negative bounds; weak systems maximize over the free pairs."""
    k = rng.randint(1, 4)
    strict = rng.random() < 0.7
    den = rng.choice((1, 1, 2, 6))
    n = 2 * k + strict
    rows = []
    for _ in range(rng.randint(0, 7)):
        coeffs = [F(rng.choice(_COEFFS)) for _ in range(k)]
        vec = [part for c in coeffs for part in (c, -c)]
        if strict:
            vec.append(F(den * rng.choice((0, 1, 1))))
        bound = F(rng.randint(-3, 3) * rng.choice((1, den)))
        rows.append((vec, bound))
        if rng.random() < 0.4:
            factor = F(rng.choice((2, 3, F(1, 2), -1)))
            rows.append(([factor * x for x in vec], factor * bound))
    rng.shuffle(rows)
    if not strict:
        weights = [F(rng.choice((0, 0, 1, -1, 2))) for _ in range(k)]
        return rows, [part for c in weights for part in (c, -c)]
    if rng.random() < 0.85:
        rows.append(([F(0)] * (n - 1) + [F(den)], F(den)))
    return rows, [F(0)] * (n - 1) + [F(1)]


def test_gcd_reduced_tableau_matches_the_fraction_simplex_on_lp_shaped_systems():
    # the row gcds, the auxiliary column of -L/g_i and the first phase-1
    # row read on the unscaled bound must leave every pivot as it was
    rng = random.Random(20261021)
    kinds = Counter()
    for _ in range(3000):
        rows, objective = _lp_shaped_system(rng)
        expected = _outcome(fraction_simplex_maximize, rows, objective)
        assert _outcome(_simplex_maximize, rows, objective) == expected, (rows, objective)
        kinds["phase 1"] += any(bound < 0 for _, bound in rows)
        kinds["unbounded" if isinstance(expected, str) else
              "infeasible" if expected is None else "feasible"] += 1
    assert min(kinds[k] for k in ("unbounded", "infeasible", "phase 1", "feasible")) >= 100, kinds


# -- one denominator per problem ---------------------------------------------

_NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)
_DENOMINATORS = (1, 2, 3, 4, 6)


def _random_problem(rng):
    """Random ``(coeffs, relation, rhs)`` rows in ``Fraction``s over one to
    three variables, most of them strict."""
    names = [f"x{i}" for i in range(rng.randint(1, 3))]
    return [({v: F(rng.choice(_NONZERO), rng.choice(_DENOMINATORS))
              for v in rng.sample(names, rng.randint(1, len(names)))},
             rng.choice(("<=", "<", "<", ">=", ">", ">", "=")),
             F(rng.randint(-4, 4), rng.choice(_DENOMINATORS)))
            for _ in range(rng.randint(1, 6))]


def _recorded_solve(monkeypatch, problem):
    """The problem's result and the one (rows, objective) the simplex got."""
    seen = []

    def record(rows, objective):
        seen.append((rows, objective))
        return _simplex_maximize(rows, objective)

    monkeypatch.setattr(feasibility, "_simplex_maximize", record)
    result = solve_linear_feasibility(problem)
    (tableau,) = seen
    return result, tableau


def _multiple(rows, base):
    """The k > 0 with ``rows`` equal to k times ``base`` entry by entry,
    None when there is no such one constant."""
    flat = [x for vec, bound in rows for x in (*vec, bound)]
    flat_base = [x for vec, bound in base for x in (*vec, bound)]
    if [len(vec) for vec, _ in rows] != [len(vec) for vec, _ in base]:
        return None
    k = next(F(x) / y for x, y in zip(flat, flat_base) if y != 0)
    return k if k > 0 and all(x == k * y for x, y in zip(flat, flat_base)) else None


def test_integer_rows_over_d_give_the_fraction_tableau_times_d_and_the_same_vertex(monkeypatch):
    rng = random.Random(4)
    kinds = Counter()
    for _ in range(600):
        rows = _random_problem(rng)
        den = rng.choice((1, 2, 5)) * math.lcm(
            *(x.denominator for coeffs, _, rhs in rows for x in (*coeffs.values(), rhs)))
        over_one, over_d = LinearFeasibilityProblem(), LinearFeasibilityProblem(denominator=den)
        for coeffs, relation, rhs in rows:
            over_one.add(coeffs, relation, rhs)
            over_d.add({v: int(c * den) for v, c in coeffs.items()}, relation, int(rhs * den))
        result, (base, objective) = _recorded_solve(monkeypatch, over_one)
        scaled_result, (scaled, scaled_objective) = _recorded_solve(monkeypatch, over_d)
        assert all(type(x) is int for vec, bound in scaled for x in (*vec, bound))
        assert _multiple(scaled, base) == den, rows
        assert scaled_objective == objective
        assert scaled_result == result, rows
        strict = any(relation in ("<", ">") for _, relation, _ in rows)
        kinds["strict" if strict else "weak"] += 1
        kinds["feasible" if result else "infeasible"] += 1
        kinds["phase 1"] += any(bound < 0 for _, bound in base)
        kinds["D > 1"] += den > 1
    assert min(kinds.values()) >= 50, kinds


# -- the vertex check --------------------------------------------------------


def _patched_vertex(monkeypatch, problem, point):
    """Make the simplex return ``point`` (name -> value) as its vertex for
    ``problem``, with a positive gap when the problem has strict rows."""
    strict = any(feasibility.RELATIONS[c.relation][2] for c in problem.constraints)
    values = [part for name in problem.variables()
              for part in (max(F(point[name]), F(0)), max(-F(point[name]), F(0)))]
    gap = [F(1)] if strict else []
    monkeypatch.setattr(feasibility, "_simplex_maximize",
                        lambda rows, objective: (values + gap, F(1) if strict else F(0)))


@pytest.mark.parametrize("row, bad, good", [
    (({"x": 2}, "<=", 3), {"x": 2}, {"x": F(3, 2)}),
    (({"x": F(1, 3)}, ">=", F(1, 2)), {"x": F(4, 3)}, {"x": F(3, 2)}),
    (({"x": 1, "y": -1}, ">", 0), {"x": F(1, 2), "y": F(1, 2)}, {"x": F(1, 2), "y": F(1, 3)}),
    (({"x": 3, "y": 1}, "=", 2), {"x": F(1, 3), "y": F(2, 3)}, {"x": F(1, 3), "y": 1}),
    (({"x": F(-2, 3), "y": F(5, 2)}, "<", F(1, 6)), {"x": -1, "y": F(-1, 5)},
     {"x": -1, "y": F(-1, 5) - F(1, 10)}),
])
def test_a_vertex_that_breaks_a_row_is_refused(monkeypatch, row, bad, good):
    """The check that follows the simplex still bites: on integer and
    ``Fraction`` rows, strict and ``=`` ones, a vertex off one row raises,
    and the same row at a vertex on it is returned as it is."""
    problem = LinearFeasibilityProblem()
    problem.add(*row)
    problem.add({"x": 1}, ">=", -5)
    (con, _) = problem.constraints
    assert not holds(con, bad) and holds(con, good)
    _patched_vertex(monkeypatch, problem, bad)
    with pytest.raises(RefdepError, match="internal error: simplex returned a bad vertex"):
        solve_linear_feasibility(problem)
    _patched_vertex(monkeypatch, problem, good)
    assert solve_linear_feasibility(problem) == Feasible(good)


def test_the_vertex_check_agrees_with_constraint_holds_on_random_vertices(monkeypatch):
    rng = random.Random(32)
    values = [F(x, d) for x in range(-4, 5) for d in (1, 2, 3)]
    verdicts = Counter()
    for _ in range(800):
        problem = LinearFeasibilityProblem(denominator=rng.choice(_DENOMINATORS))
        for row in _random_problem(rng):
            if rng.random() < 0.5:  # integer rows, as the fitters hand in
                coeffs, relation, rhs = row
                row = ({v: c.numerator for v, c in coeffs.items()}, relation, rhs.numerator)
            problem.add(*row)
        point = {name: rng.choice(values) for name in problem.variables()}
        on_every_row = all(holds(con, point) for con in problem.constraints)
        _patched_vertex(monkeypatch, problem, point)
        try:
            result = solve_linear_feasibility(problem)
        except RefdepError:
            result = None
        assert (result == Feasible(point)) == on_every_row
        verdicts[on_every_row] += 1
    assert min(verdicts.values()) >= 60, verdicts
