"""Exact linear feasibility over the rationals.

Every fitter in this package reduces to one question: does a finite
system of weak/strict linear inequalities with rational coefficients
have a solution?  Floating-point LP cannot certify strict inequalities,
so this module implements a small two-phase dictionary simplex with
Bland's rule in exact arithmetic.  The tableau is fraction-free: every
entry is a Python ``int`` over one common denominator, updated by
Bareiss's exact-division step, and only the returned vertex is turned
back into ``Fraction`` values.  Strict relations are handled with a
shared gap variable g: each ``lhs > rhs`` becomes ``lhs >= rhs + g``, g
is capped at 1 and then maximized; the system is feasible exactly when
the optimum is positive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .exceptions import RefdepError

_ZERO = Fraction(0)
_ONE = Fraction(1)

# relation -> (comparison, signs of its ``<=`` rows, takes the gap column):
# ``lhs R rhs`` becomes ``sign * lhs (+ g) <= sign * rhs`` for each sign
RELATIONS = {
    "<=": (operator.le, (1,), False),
    "<": (operator.lt, (1,), True),
    ">=": (operator.ge, (-1,), False),
    ">": (operator.gt, (-1,), True),
    "=": (operator.eq, (1, -1), False),
}


@dataclass(frozen=True)
class Constraint:
    """``sum(coeffs[v] * v) relation rhs`` with exact rational data."""

    coeffs: tuple  # tuple[(str, Fraction), ...] sorted by variable name
    relation: str
    rhs: Fraction

    def holds(self, assignment: Mapping) -> bool:
        lhs = sum((c * assignment[v] for v, c in self.coeffs), _ZERO)
        return RELATIONS[self.relation][0](lhs, self.rhs)


def constraint(coeffs: Mapping, relation: str, rhs) -> Constraint:
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if Fraction(c) != 0))
    return Constraint(items, relation, Fraction(rhs))


@dataclass
class LinearFeasibilityProblem:
    constraints: list = field(default_factory=list)

    def add(self, coeffs: Mapping, relation: str, rhs) -> None:
        self.constraints.append(constraint(coeffs, relation, rhs))

    def variables(self):
        names = set()
        for con in self.constraints:
            names.update(v for v, _ in con.coeffs)
        return sorted(names)


@dataclass(frozen=True)
class Feasible:
    assignment: dict

    def __bool__(self):
        return True


@dataclass(frozen=True)
class Infeasible:
    reason: str = ""

    def __bool__(self):
        return False


def solve_linear_feasibility(problem: LinearFeasibilityProblem):
    """Return ``Feasible(assignment)`` or ``Infeasible``.

    The assignment is exact and, when strict constraints are present, is
    taken at the vertex maximizing the strictness gap, so every strict
    inequality holds with room to spare.
    """
    names = problem.variables()
    strict = any(RELATIONS[c.relation][2] for c in problem.constraints)
    # Free variable i is split as x[2i] - x[2i+1] with both parts >= 0.
    column = {name: 2 * i for i, name in enumerate(names)}
    gap = 2 * len(names)
    nvars = gap + 1 if strict else gap

    rows = []  # (coeff vector, bound) meaning  coeffs . x <= bound
    for con in problem.constraints:
        _, signs, gapped = RELATIONS[con.relation]
        vec = [_ZERO] * nvars
        for v, c in con.coeffs:
            vec[column[v]] = c
            vec[column[v] + 1] = -c
        for sign in signs:
            row = vec if sign == 1 else [-c for c in vec]
            if gapped:
                row[gap] = _ONE
            rows.append((row, con.rhs if sign == 1 else -con.rhs))
    if strict:
        cap = [_ZERO] * nvars
        cap[gap] = _ONE
        rows.append((cap, _ONE))

    objective = [_ZERO] * nvars
    if strict:
        objective[gap] = _ONE

    solution = _simplex_maximize(rows, objective)
    if solution is None:
        return Infeasible("weak relaxation is infeasible")
    values, objective_value = solution
    if strict and objective_value <= 0:
        return Infeasible("strict inequalities only satisfiable with zero gap")
    assignment = {name: values[i] - values[i + 1] for name, i in column.items()}
    result = Feasible(assignment)
    for con in problem.constraints:  # exactness is cheap to guarantee
        if not con.holds(assignment):
            raise RefdepError("internal error: simplex returned a bad vertex")
    return result


def _simplex_maximize(rows, objective):
    """Maximize ``objective . x`` s.t. ``rows`` (Ax <= b), x >= 0.

    Dictionary simplex with Bland's rule on a fraction-free integer
    tableau (Edmonds; Bareiss).  The rows and b are scaled once by the
    lcm of their denominators and the objective by its own; every entry
    is then a Python ``int`` over one common denominator ``d``, which is
    the determinant of the current basis, so each ``//`` below is exact.
    Positive scaling of the rows and of the objective keeps the signs
    and ratio orders that Bland's rule reads (the phase-1 variable's
    column of -1 in the scaled rows only rescales that variable), so the
    pivots and the vertex are those of the same simplex on ``Fraction``
    entries.

    Each row holds the nonbasic coefficients followed by b:
    ``basic[i] = (row[-1] - sum_j row[j] * nonbasic_j) / d``.  The
    objective is kept in the same form, ``z = (z[-1] - sum_j z[j] *
    nonbasic_j) / (d * obj_scale)``.  Returns (values, optimum) or None
    when infeasible.  Raises on an unbounded objective (callers cap
    their objectives, so this indicates a bug).
    """
    n = len(objective)
    m = len(rows)
    row_scale = math.lcm(*{x.denominator for vec, bound in rows for x in (*vec, bound)})
    t = [[x.numerator * (row_scale // x.denominator) for x in (*vec, bound)]
         for vec, bound in rows]
    obj_scale = math.lcm(*{x.denominator for x in objective})
    weight = [x.numerator * (obj_scale // x.denominator) for x in objective]
    z = [-w for w in weight] + [0]
    d = 1
    nonbasic = list(range(n))
    basic = list(range(n, n + m))

    def pivot(li, ei):
        # basic[li] leaves, nonbasic[ei] enters; row li keeps its numerators
        nonlocal d, z
        prow = t[li]
        p = prow[ei]

        def eliminate(row):
            f = row[ei]
            if f:
                row = [(x * p - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                row = [x * p // d for x in row]
            row[ei] = -f
            return row

        for i in range(m):
            if i != li:
                t[i] = eliminate(t[i])
        z = eliminate(z)
        prow[ei] = d
        d = p
        if d < 0:
            for i in range(m):
                t[i] = [-x for x in t[i]]
            z = [-x for x in z]
            d = -d
        basic[li], nonbasic[ei] = nonbasic[ei], basic[li]

    def run():
        while True:
            entering = [j for j in range(n) if z[j] < 0]
            if not entering:
                return
            ei = min(entering, key=nonbasic.__getitem__)
            li = None
            for i, row in enumerate(t):
                a = row[ei]
                if a > 0:
                    if li is None:
                        li = i
                        continue
                    lhs, rhs = row[-1] * t[li][ei], t[li][-1] * a
                    if lhs < rhs or (lhs == rhs and basic[i] < basic[li]):
                        li = i
            if li is None:
                raise RefdepError("unbounded objective in simplex")
            pivot(li, ei)

    if any(row[-1] < 0 for row in t):
        # Phase 1 with an auxiliary variable (id beyond slacks).
        aux = n + m
        for row in t:
            row.insert(n, -1)
        z = [0] * n + [1, 0]  # maximize -x0
        nonbasic.append(aux)
        n, n_real = n + 1, n
        li = min(range(m), key=lambda i: (t[i][-1], basic[i]))
        pivot(li, n - 1)
        run()
        if z[-1] != 0:
            return None
        if aux in basic:
            li = basic.index(aux)
            # Degenerate: pivot x0 out on any eligible column.
            ei = next(j for j in range(n) if t[li][j] != 0)
            pivot(li, ei)
        drop = nonbasic.index(aux)
        for row in t:
            del row[drop]
        del nonbasic[drop]
        n = n_real
        # Restore the real objective in terms of the current nonbasics.
        z = [0] * (n + 1)
        for i, var in enumerate(basic):
            if var < n_real and weight[var]:
                z = [x + weight[var] * y for x, y in zip(z, t[i])]
        for pos, var in enumerate(nonbasic):
            if var < n_real:
                z[pos] -= weight[var] * d
    run()

    values = [_ZERO] * len(objective)
    for i, var in enumerate(basic):
        if var < len(objective):
            values[var] = Fraction(t[i][-1], d)
    return values, Fraction(z[-1], d * obj_scale)
