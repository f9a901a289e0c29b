"""Exact linear feasibility over the rationals.

Every fitter in this package reduces to one question: does a finite
system of weak/strict linear inequalities with rational coefficients
have a solution?  Floating-point LP cannot certify strict inequalities,
so this module implements a small two-phase dictionary simplex with
Bland's rule in exact arithmetic.  Coefficients are ``int`` or
``Fraction``, and ints stay ints: a problem records the denominator D
its rows are over, so a caller whose data share one denominator hands
in integer rows, which go from the sparse constraints to the tableau
with no ``Fraction`` step.  The tableau is fraction-free: every entry is
a Python ``int`` over one common denominator, updated by Bareiss's
exact-division step, and only the returned vertex is turned back into
``Fraction`` values; every constraint is checked at it on its integer
numerators over their common denominator.  Strict relations are handled
with a shared gap variable g: each ``lhs > rhs`` becomes ``lhs >= rhs +
g``, g is capped at 1 and then maximized; the system is feasible exactly
when the optimum is positive.  The gap column and its cap are scaled by
D too, so a problem over D gives the tableau of the same problem over 1
times D, and Bland's rule takes the same pivots to the same vertex.  The
tableau is stored by column and each row reduced by its gcd first (see
``_simplex_maximize``), which leaves the pivots as they were.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .exceptions import RefdepError

_ZERO = Fraction(0)

# relation -> (comparison, signs of its ``<=`` rows, takes the gap column):
# ``lhs R rhs`` becomes ``sign * lhs (+ g) <= sign * rhs`` for each sign
RELATIONS = {
    "<=": (operator.le, (1,), False),
    "<": (operator.lt, (1,), True),
    ">=": (operator.ge, (-1,), False),
    ">": (operator.gt, (-1,), True),
    "=": (operator.eq, (1, -1), False),
}


class Constraint(NamedTuple):
    """``sum(coeffs[v] * v) relation rhs`` with exact rational data."""

    coeffs: tuple  # tuple[(str, int | Fraction), ...] sorted by variable name, no zero
    relation: str
    rhs: int | Fraction


def _exact(x):
    """``x`` as an exact number: ints and ``Fraction``s as they are."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def constraint(coeffs: Mapping, relation: str, rhs) -> Constraint:
    """The row with its zero coefficients dropped and the rest sorted by
    name; an all-``int`` row is kept as it is given."""
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    items = sorted(item for item in coeffs.items() if item[1])
    if type(rhs) is not int or any(type(c) is not int for _, c in items):
        items, rhs = [(v, _exact(c)) for v, c in items], _exact(rhs)
    return Constraint(tuple(items), relation, rhs)


@dataclass
class LinearFeasibilityProblem:
    """Constraints over one ``denominator`` D: each row stands for itself
    divided by D.  Only the strictness gap reads D; it stays in the
    problem's own units, capped at 1, whatever D is.  ``add`` drops a
    constraint equal to one already in the problem."""

    constraints: list = field(init=False, default_factory=list)
    denominator: int = 1
    _seen: set = field(init=False, default_factory=set, repr=False, compare=False)

    def add(self, coeffs: Mapping, relation: str, rhs) -> None:
        con = constraint(coeffs, relation, rhs)
        if con not in self._seen:
            self._seen.add(con)
            self.constraints.append(con)

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
    den = problem.denominator

    rows = []  # (coeff vector, bound) meaning  coeffs . x <= bound
    for coeffs, relation, rhs in problem.constraints:
        _, signs, gapped = RELATIONS[relation]
        for sign in signs:
            row = [0] * nvars
            for v, c in coeffs:
                i = column[v]
                row[i], row[i + 1] = (c, -c) if sign == 1 else (-c, c)
            if gapped:
                row[gap] = den
            rows.append((row, rhs if sign == 1 else -rhs))
    if strict:
        cap = [0] * nvars
        cap[gap] = den
        rows.append((cap, den))

    objective = [0] * nvars
    if strict:
        objective[gap] = 1

    solution = _simplex_maximize(rows, objective)
    if solution is None:
        return Infeasible("weak relaxation is infeasible")
    values, objective_value = solution
    if strict and objective_value <= 0:
        return Infeasible("strict inequalities only satisfiable with zero gap")
    assignment = {name: values[i] - values[i + 1] for name, i in column.items()}
    # exactness is cheap to guarantee: sum(c * X) (relation) rhs * L on the
    # vertex's integer numerators X over their common denominator L
    scale = math.lcm(*{x.denominator for x in assignment.values()})
    scaled = {name: x.numerator * (scale // x.denominator) for name, x in assignment.items()}
    for con in problem.constraints:
        lhs = sum(c * scaled[v] for v, c in con.coeffs)
        if not RELATIONS[con.relation][0](lhs, con.rhs * scale):
            raise RefdepError("internal error: simplex returned a bad vertex")
    return Feasible(assignment)


def _simplex_maximize(rows, objective):
    """Maximize ``objective . x`` s.t. ``rows`` (Ax <= b), x >= 0.

    Dictionary simplex with Bland's rule on a fraction-free integer
    tableau (Edmonds; Bareiss).  Entries are ``int`` or ``Fraction``.
    The rows and b are scaled once by the lcm of their denominators (not
    at all when they are all ints), each row is then divided by the gcd
    g_i of its entries, and the objective is scaled by its own lcm; every entry
    is then a Python ``int`` over one common denominator ``d``, which is
    the determinant of the current basis, so each ``//`` below is exact.
    The tableau is stored by column: one list per nonbasic column and
    one for b, each holding the m row entries and then the objective's,
    so a pivot rewrites only the columns its row touches and rescales the
    rest.

    A positive scaling of a row only rescales that row's slack, and of
    the objective only its value, so Bland's rule reads the same signs
    and ratio orders.  Phase 1's auxiliary variable x0, -1 in every row
    before the division, enters as x0 / L, L the lcm of the g_i, so its
    column is the integer -L/g_i; its first pivot row is the one with the
    least unscaled bound g_i * b_i.  The pivots and the vertex are
    therefore those of the same simplex on ``Fraction`` entries.

    Column j holds the coefficients of nonbasic_j:
    ``basic[i] = (b[i] - sum_j col_j[i] * nonbasic_j) / d``, and at index
    m the objective in the same form, ``z = (b[m] - sum_j col_j[m] *
    nonbasic_j) / (d * obj_scale)``.  Returns (values, optimum) or None
    when infeasible.  Raises on an unbounded objective (callers cap
    their objectives, so this indicates a bug).
    """
    n = len(objective)
    m = len(rows)
    t = [[*vec, bound] for vec, bound in rows]
    try:
        gcds = [math.gcd(*row) or 1 for row in t]
    except TypeError:  # math.gcd takes only ints: a Fraction entry scales every row
        row_scale = math.lcm(*{x.denominator for row in t for x in row})
        t = [[x.numerator * (row_scale // x.denominator) for x in row] for row in t]
        gcds = [math.gcd(*row) or 1 for row in t]
    t = [row if g == 1 else [x // g for x in row] for row, g in zip(t, gcds)]
    obj_scale = math.lcm(*{x.denominator for x in objective})
    weight = [x.numerator * (obj_scale // x.denominator) for x in objective]
    cols = [list(col) for col in zip(*t, [-w for w in weight] + [0])]
    d = 1
    nonbasic = list(range(n))
    basic = list(range(n, n + m))

    def pivot(li, ei):
        # basic[li] leaves, nonbasic[ei] enters; row li keeps its numerators,
        # and a negative pivot flips every sign so that d stays positive
        nonlocal d
        pcol = cols[ei]
        sign, p = (1, pcol[li]) if pcol[li] > 0 else (-1, -pcol[li])
        for j, col in enumerate(cols):
            if j == ei:
                continue
            r = sign * col[li]
            if r:
                col = cols[j] = [(x * p - f * r) // d for x, f in zip(col, pcol)]
                col[li] = r
            elif p != d:
                cols[j] = [x * p // d for x in col]
        cols[ei] = [-sign * f for f in pcol]
        cols[ei][li] = sign * d
        d = p
        basic[li], nonbasic[ei] = nonbasic[ei], basic[li]

    def run():
        while True:
            entering = [j for j in range(n) if cols[j][m] < 0]
            if not entering:
                return
            ei = min(entering, key=nonbasic.__getitem__)
            col, b = cols[ei], cols[-1]
            li = None
            for i in range(m):
                a = col[i]
                if a > 0:
                    if li is None:
                        li = i
                        continue
                    lhs, rhs = b[i] * col[li], b[li] * a
                    if lhs < rhs or (lhs == rhs and basic[i] < basic[li]):
                        li = i
            if li is None:
                raise RefdepError("unbounded objective in simplex")
            pivot(li, ei)

    if min(cols[-1]) < 0:
        # Phase 1 with an auxiliary variable (id beyond slacks).
        aux = n + m
        b = cols[-1]
        for col in cols[:n]:
            col[m] = 0  # maximize -x0: no weight on the real columns
        big = math.lcm(*gcds)
        cols.insert(n, [-(big // g) for g in gcds] + [1])
        nonbasic.append(aux)
        n, n_real = n + 1, n
        li = min(range(m), key=lambda i: (gcds[i] * b[i], basic[i]))
        pivot(li, n - 1)
        run()
        if cols[-1][m] != 0:
            return None
        if aux in basic:
            li = basic.index(aux)
            # Degenerate: pivot x0 out on any eligible column.
            ei = next(j for j in range(n) if cols[j][li] != 0)
            pivot(li, ei)
        drop = nonbasic.index(aux)
        del cols[drop], nonbasic[drop]
        n = n_real
        # Restore the real objective in terms of the current nonbasics.
        terms = [(i, weight[var]) for i, var in enumerate(basic) if var < n_real and weight[var]]
        for j, col in enumerate(cols):
            col[m] = sum(w * col[i] for i, w in terms)
            if j < n and nonbasic[j] < n_real:
                col[m] -= weight[nonbasic[j]] * d
    run()

    b = cols[-1]
    values = [_ZERO] * len(objective)
    for i, var in enumerate(basic):
        if var < len(objective):
            values[var] = Fraction(b[i], d)
    return values, Fraction(b[m], d * obj_scale)
