"""Risk domain: lotteries, risk orders, expected-utility fitting.

Lotteries live on the dataset's prize grid (the sorted union of
supports) and are handled as exact probability vectors: the axioms, the
least-risky Psi map and the fitter read them through one cached integer
view (numerators over the probabilities' common denominator D), and the
utility LP takes its rows over D as integers.  ``Fraction``s are built
only for what is reported: params, narratives and the LP vertex.  Two
partial risk orders drive everything: mean-preserving spreads and
extreme spreads; the admissible references of a menu are the members
spread over by nobody.  The fitted representation assigns one normalized
Bernoulli utility per reference, more concave for safer references.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations

from .choices import (
    Alternative,
    ChoiceDataset,
    FiniteProperty,
    LOTTERY,
    LotteryPayload,
    WARP,
    conjoin,
    dominance_over,
    expansion_over,
    invariance_over,
    linkage_report,
    mismatches,
    over_common_denominator,
    raise_first_failure,
    reference_rule,
    revealed_rows,
    simulate,
    warp_over,  # noqa: F401  bench/tracing.py wraps it here
)
from .engine import PsiMap, ReferenceOrder, check_reference_dependence
from .exceptions import (
    EmptyPsi,
    InfeasibleFit,
    NotATriangle,
    NotIncreasing,
    PrizeSetMismatch,
    UnknownLottery,
    ValidationError,
)
from .feasibility import LinearFeasibilityProblem, solve_linear_feasibility
from .serialize import format_rational, ids_from_json, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- prize grids and integer coordinates ------------------------------------
#
# Every hot path reads a dataset's lotteries through one cached integer
# view: the probabilities as numerators over their common denominator D,
# the prizes as integers over their own.  The relations below are
# scale-free, so they decide the same on this view as on the ``Fraction``
# vectors, and ``Fraction``s are built only where a value is reported.


def prize_grid(dataset: ChoiceDataset):
    def grid():
        prizes = set()
        for alt in dataset.alternatives.values():
            prizes.update(x for x, _ in alt.payload.probs)
        if len(prizes) < 2:
            raise PrizeSetMismatch("a lottery dataset needs at least two prizes")
        return tuple(sorted(prizes))
    return dataset.cached("prizes", grid)


def _coords(dataset: ChoiceDataset) -> tuple:
    """The dataset's lotteries on its prize grid as integers: (the prizes
    over their common denominator, the probabilities' common denominator
    D, id -> numerators over D)."""
    def view():
        prizes = prize_grid(dataset)
        _, (scaled,) = over_common_denominator([prizes])
        den, rows = over_common_denominator(tuple(alt.payload.prob(x) for x in prizes)
                                            for alt in dataset.alternatives.values())
        return scaled, den, dict(zip(dataset.alternatives, rows))
    return dataset.cached("coords", view)


def _check_same_grid(prizes, *vectors):
    for vec in vectors:
        if len(vec) != len(prizes):
            raise PrizeSetMismatch(
                f"vector of length {len(vec)} on a {len(prizes)}-prize grid")


# -- the risk orders -------------------------------------------------------


def _cdf_gaps(p, q):
    """The running difference F_p - F_q of the two CDFs, prize by prize."""
    return accumulate(x - y for x, y in zip(p, q))


def _scale(p, q, coords):
    """The beta with p[i] = beta * q[i] at every index in ``coords``, as
    a (numerator, denominator) pair with a positive denominator: (0, 1)
    when q vanishes on all of them, None when no single beta fits."""
    num, den = 0, 1
    for i in coords:
        if q[i]:
            num, den = (p[i], q[i]) if q[i] > 0 else (-p[i], -q[i])
            break
    for i in coords:
        if p[i] * den != num * q[i]:
            return None
    return num, den


def fosd(prizes, p, q) -> bool:
    """p first-order stochastically dominates q (strictly somewhere)."""
    _check_same_grid(prizes, p, q)
    return p != q and all(gap <= 0 for gap in _cdf_gaps(p, q))


def mps(prizes, p, q) -> bool:
    """p is a mean-preserving spread of q (see ``_mps``)."""
    _check_same_grid(prizes, p, q)
    return _mps(prizes, p, q)


def extreme_spread(prizes, p, q) -> bool:
    """p mixes q with a best/worst bet (see ``_extreme_spread``)."""
    _check_same_grid(prizes, p, q)
    return _extreme_spread(prizes, p, q)


def worst_dilution(prizes, p, q) -> bool:
    """p dilutes q with the worst prize (see ``_worst_dilution``)."""
    _check_same_grid(prizes, p, q)
    return _worst_dilution(prizes, p, q)


def riskier_than(prizes, p, q) -> bool:
    return mps(prizes, p, q) or extreme_spread(prizes, p, q)


def _below(prizes, p, q) -> bool:
    """p is a spread or a worst-prize dilution of q, so ranks below it.
    ``validate`` tests it on the caller's vectors, so through the checked
    relations."""
    return riskier_than(prizes, p, q) or worst_dilution(prizes, p, q)


# The unchecked relation bodies, for vectors already on the grid: the
# dataset's own coordinates (``_spreads`` and ``_forced_edges``).


def _mps(prizes, p, q) -> bool:
    """Equal means plus second-order dominance of q over p: the gap-weighted
    partial sums of the CDF difference stay nonnegative at every prize."""
    if p == q or sum(x * (a - b) for x, a, b in zip(prizes, p, q)) != 0:
        return False
    steps = (hi - lo for lo, hi in zip(prizes, prizes[1:]))
    return all(acc >= 0 for acc in accumulate(
        gap * step for gap, step in zip(_cdf_gaps(p, q), steps)))


def _extreme_spread(prizes, p, q) -> bool:
    """p mixes q with a best/worst bet whose best-prize weight falls
    strictly inside (q(best), 1 - q(worst)).  Scale-free: the total mass
    is read as sum(q), and the mixture weights are cross-multiplied."""
    beta = _scale(p, q, range(1, len(prizes) - 1))
    if beta is None or not 0 <= beta[0] < beta[1]:
        return False
    num, den = beta
    mass, rest = sum(q), den - num
    alpha = den * p[-1] - num * q[-1]  # the bet's best-prize weight, times den - num
    return (q[-1] * rest < alpha < (mass - q[0]) * rest
            and den * p[0] == num * q[0] + rest * mass - alpha)


def _worst_dilution(prizes, p, q) -> bool:
    """p = beta*q + (1-beta)*(worst prize for sure), beta in [0,1), p != q.

    Not part of the least-risky map, but ranked below q as a spread is
    (``_below``): with the spread edges alone the reverse Allais data
    fits, ranking the diluted sure thing above the sure thing.
    """
    if p == q:
        return False
    beta = _scale(p, q, range(1, len(prizes)))
    if beta is None:
        return False
    num, den = beta
    return 0 <= num < den and den * p[0] == num * q[0] + (den - num) * sum(q)


def _riskier(prizes, p, q) -> bool:
    return _mps(prizes, p, q) or _extreme_spread(prizes, p, q)


def _spreads(dataset: ChoiceDataset) -> frozenset:
    """The dataset's (p, q) lottery pairs with p riskier than q."""
    def pairs():
        prizes, _, vectors = _coords(dataset)
        return frozenset((p, q) for p in vectors for q in vectors
                         if p != q and _riskier(prizes, vectors[p], vectors[q]))
    return dataset.cached("spreads", pairs)


def _less_risky(dataset: ChoiceDataset) -> dict:
    """Per lottery p, the lotteries p is a spread of: those beating it."""
    beaten = {}
    for p, q in _spreads(dataset):
        beaten.setdefault(p, []).append(q)
    return beaten


LEAST_RISKY_PSI = PsiMap("least-risky", _less_risky)
least_risky = LEAST_RISKY_PSI.of  # the members no other member spreads over


# -- mixture detection -----------------------------------------------------


def _diff_key(vec):
    """The gcd-primitive form of an integer vector, None for zero; two
    diffs are positive scalar multiples iff their keys are equal."""
    g = math.gcd(*vec)
    return tuple(x // g for x in vec) if g else None


def _diff_table(dataset: ChoiceDataset):
    def table():
        _, _, vectors = _coords(dataset)
        ids = sorted(vectors)
        out = {}
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                vec = tuple(x - y for x, y in zip(vectors[a], vectors[b]))
                out[(a, b)] = (vec, _diff_key(vec))
        return out
    return dataset.cached("diffs", table)


def _mixture_correspondences(dataset: ChoiceDataset):
    """Independence's correspondences, both clauses, for every
    (p, q, p', q', alpha) with p' = p^a s and q' = q^a s exactly, a in
    (0,1), for some lottery s on the grid."""
    def correspondences():
        _, _, vectors = _coords(dataset)
        diffs = _diff_table(dataset)
        groups = {}
        for pair, (_, key) in diffs.items():
            if key is not None:
                groups.setdefault(key, []).append(pair)
        corr, shown = [], {}  # shown: (num, den) -> alpha as printed
        for pairs in groups.values():
            for p, q in pairs:
                # the group's diffs are positive multiples of one another,
                # so alpha = num / den with both read at one pivot
                base = diffs[(p, q)][0]
                pivot = next(i for i, x in enumerate(base) if x != 0)
                den = abs(base[pivot])
                for p2, q2 in pairs:
                    num = abs(diffs[(p2, q2)][0][pivot])
                    # the mixer (p2 - alpha p) / (1 - alpha) is a lottery
                    if num < den and all(den * x2 >= num * x
                                         for x2, x in zip(vectors[p2], vectors[p])):
                        if (num, den) not in shown:
                            shown[num, den] = format_rational(Fraction(num, den))
                        a = shown[num, den]
                        corr.append((p, q, p2, q2, f"clause 1: {p} chosen over {q} "
                                     f"but the {a}-mixture {p2} loses to {q2}"))
                        corr.append((p2, q2, p, q, f"clause 2: {p2} chosen over {q2} "
                                     f"but the {a}-mixture {p} loses to {q}"))
        return corr

    return dataset.cached("mixture-correspondences", correspondences)


def independence_over(dataset: ChoiceDataset, family) -> list:
    """Violations of the common-mixture condition inside ``family``."""
    return invariance_over(dataset, family, "Independence",
                           _mixture_correspondences(dataset))


INDEPENDENCE = FiniteProperty("Independence", independence_over)
RISK_PROPERTY = conjoin(WARP, INDEPENDENCE)


def check_risk_reference_dependence(dataset: ChoiceDataset) -> list:
    """Reference dependence with T = WARP & Independence, least-risky Psi."""
    return check_reference_dependence(dataset, RISK_PROPERTY, LEAST_RISKY_PSI)


def check_fosd_dominance(dataset: ChoiceDataset) -> list:
    """A dominated lottery must never be chosen while its dominator is present."""
    prizes, _, vectors = _coords(dataset)
    return dominance_over(
        dataset, dataset.menus(),
        lambda winner, loser: fosd(prizes, vectors[winner], vectors[loser]),
        lambda winner, loser: ("FOSD", f"{loser} chosen although {winner} dominates it"))


def check_avoidable_risk(dataset: ChoiceDataset) -> list:
    """Expanding a menu may only increase risk aversion.

    A violation is a nested pair small < big where the sure-ish side of a
    common decomposition wins in small while the risky side of a
    positively proportional decomposition wins strictly in big.
    """
    diffs = _diff_table(dataset)
    one_negative = {pair: key is not None and sum(1 for x in vec if x < 0) == 1
                    for pair, (vec, key) in diffs.items()}
    lattice = dataset.lattice()
    contain, chosen = lattice.contain, lattice.chosen
    # per diff key: the menus choosing a safe side over a present one-negative
    # risky side, and those choosing a risky side over a present safe side
    smalls, bigs = {}, {}
    for (risky, safe), (_, key) in diffs.items():
        if key is None:
            continue
        if one_negative[(risky, safe)]:
            smalls[key] = smalls.get(key, 0) | (chosen.get(safe, 0) & contain.get(risky, 0))
        bigs[key] = bigs.get(key, 0) | (chosen.get(risky, 0) & contain.get(safe, 0)
                                        & ~chosen.get(safe, 0))

    def clashes(small, big):
        c_big = dataset.observations[big]
        riskies, big_riskies, big_safes = sorted(small), sorted(c_big), sorted(big - c_big)
        for safe1 in sorted(dataset.observations[small]):
            for risky1 in riskies:
                if risky1 == safe1 or not one_negative[(risky1, safe1)]:
                    continue
                key1 = diffs[(risky1, safe1)][1]
                for risky2 in big_riskies:
                    for safe2 in big_safes:
                        if diffs[(risky2, safe2)][1] == key1:
                            yield (f"{safe1} beats {risky1} in the sub-menu but the "
                                   f"proportional decomposition ({risky2} over "
                                   f"{safe2}) wins strictly after expansion")

    return expansion_over(dataset, "AvoidableRisk",
                          [(mask, bigs[key]) for key, mask in smalls.items()], clashes)


def battery(dataset: ChoiceDataset):
    """The AREU axioms as (check key, axiom name, witnesses), in fit order."""
    yield "fosd", "FOSD", check_fosd_dominance(dataset)
    yield ("risk_reference_dependence", "risk reference dependence",
           check_risk_reference_dependence(dataset))
    yield "avoidable_risk", "avoidable risk", check_avoidable_risk(dataset)


# -- concavity comparison --------------------------------------------------


def _check_increasing(u):
    if any(a >= b for a, b in zip(u, u[1:])):
        raise NotIncreasing("utility vector must be strictly increasing")


def rho_vector(prizes, u) -> tuple:
    """Interior gap ratios (u_i - u_{i-1}) / (u_{i+1} - u_{i-1})."""
    _check_same_grid(prizes, u)
    _check_increasing(u)
    return tuple(a / b for a, b in _gap_ratios(u))


def _gap_ratios(u) -> list:
    """The gap ratios of the strictly increasing ``u``, at any scale, as
    (numerator, positive denominator) pairs."""
    return [(u[i] - u[i - 1], u[i + 1] - u[i - 1]) for i in range(1, len(u) - 1)]


def _more_concave(r1, r2) -> bool:
    """``_gap_ratios`` ``r1`` are weakly more concave than ``r2``."""
    return all(a * d >= b * c for (a, c), (b, d) in zip(r1, r2))


# -- AREU parameters -------------------------------------------------------


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class AreuParams:
    """Reference order over named lotteries plus per-reference utilities.

    Utilities are normalized to 0 at the worst prize and 1 at the best,
    strictly increasing, and weakly more concave up the order, and no
    lottery ranks above one it is ``_below``; the prizes strictly increase.
    """

    prizes: tuple
    lotteries: tuple  # tuple[(id, prob vector), ...]
    order: ReferenceOrder
    utilities: tuple  # tuple[(id, utility vector), ...]

    @staticmethod
    def build(prizes, lotteries, order, utilities) -> "AreuParams":
        prizes = tuple(map(_fraction, prizes))
        lot = tuple(sorted((i, tuple(map(_fraction, v))) for i, v in dict(lotteries).items()))
        uts = tuple(sorted((i, tuple(map(_fraction, v))) for i, v in dict(utilities).items()))
        params = AreuParams(prizes, lot, order, uts)
        params.validate()
        return params

    @cached_property
    def ints(self) -> tuple:
        """The fields as integers, read once by validation and the choice
        rule: (prizes, D, id -> lottery numerators over D, U, id -> utility
        numerators over U), D and U the common denominators."""
        _, (prizes,) = over_common_denominator([self.prizes])
        den, lotteries = over_common_denominator(v for _, v in self.lotteries)
        u_den, utilities = over_common_denominator(u for _, u in self.utilities)
        return (prizes, den, dict(zip((i for i, _ in self.lotteries), lotteries)),
                u_den, dict(zip((i for i, _ in self.utilities), utilities)))

    def vector(self, alt_id):
        for i, v in self.lotteries:
            if i == alt_id:
                return v
        raise UnknownLottery(alt_id)

    def utility(self, ref_id):
        for i, v in self.utilities:
            if i == ref_id:
                return v
        raise UnknownLottery(f"no utility for reference {ref_id!r}")

    def validate(self) -> None:
        if any(a >= b for a, b in zip(self.prizes, self.prizes[1:])):
            raise ValidationError("prizes must be strictly increasing")
        ids = {i for i, _ in self.lotteries}
        if set(self.order.ranking) != ids:
            raise ValidationError("order must cover exactly the named lotteries")
        if {i for i, _ in self.utilities} != ids:
            raise ValidationError("every lottery needs a reference utility")
        prizes, den, vectors, u_den, utilities = self.ints
        for i, vec in self.lotteries:
            _check_same_grid(self.prizes, vec)
            if sum(vectors[i]) != den or any(x < 0 for x in vectors[i]):
                raise ValidationError("bad probability vector")
        rhos = {}
        for i, u in self.utilities:
            _check_same_grid(self.prizes, u)
            if utilities[i][0] != 0 or utilities[i][-1] != u_den:
                raise ValidationError("utilities must be normalized to [0, 1]")
            _check_increasing(utilities[i])
            rhos[i] = _gap_ratios(utilities[i])
        for hi, lo in combinations(self.order.ranking, 2):
            if _below(prizes, vectors[hi], vectors[lo]):
                raise ValidationError(f"order is not risk-consistent: {hi} is a "
                                      f"spread or a worst-prize dilution of {lo}")
            if not _more_concave(rhos[hi], rhos[lo]):
                raise ValidationError(
                    f"concavity must not increase down the order ({hi} vs {lo})")

    def to_json(self) -> dict:
        return {
            "prizes": [format_rational(x) for x in self.prizes],
            "lotteries": {i: [format_rational(x) for x in v]
                          for i, v in self.lotteries},
            "order": self.order.to_json(),
            "utilities": {i: [format_rational(x) for x in v]
                          for i, v in self.utilities},
        }

    @staticmethod
    def from_json(doc) -> "AreuParams":
        return AreuParams.build(
            [parse_rational(x) for x in doc["prizes"]],
            {i: [parse_rational(x) for x in v] for i, v in doc["lotteries"].items()},
            ReferenceOrder(tuple(ids_from_json(doc["order"], "order"))),
            {i: [parse_rational(x) for x in v] for i, v in doc["utilities"].items()},
        )


def expected_utility(vec, u) -> Fraction:
    return sum((p * x for p, x in zip(vec, u)), _ZERO)


def _rule(params: AreuParams):
    """``choose(menu)``: the maximizers of the expected utility under the
    menu's top member's utility, on the params' integer view."""
    _, _, vectors, _, utilities = params.ints
    return reference_rule(
        lambda members: params.order.top(members, UnknownLottery),
        lambda ref, alt: sum(map(operator.mul, vectors[alt], utilities[ref])))


def check_lotteries(params: AreuParams, alternatives) -> None:
    """A ValidationError when an alternative the params name carries
    another lottery than the params' or a prize off their grid (its
    probabilities sum to 1, so either shows as a different vector on the
    grid), compared in the payload's form.  Ids the params do not name are
    left to the choice rule."""
    named = {i: tuple((x, p) for x, p in zip(params.prizes, v) if p)
             for i, v in params.lotteries}
    for alt in alternatives:
        if alt.id in named and alt.payload.probs != named[alt.id]:
            raise ValidationError(
                f"lottery {alt.id!r} differs from the params' lottery of that id")


def simulate_areu(params: AreuParams, menus) -> ChoiceDataset:
    """The dataset choosing from each of ``menus`` by one rule."""
    alternatives = [Alternative(alt_id, LotteryPayload(tuple(zip(params.prizes, vec))))
                    for alt_id, vec in params.lotteries]
    return simulate(LOTTERY, alternatives, menus, _rule(params))


def verify_areu(params: AreuParams, dataset: ChoiceDataset) -> list:
    """``mismatches`` of one rule built for the whole dataset."""
    check_lotteries(params, dataset.alternatives.values())
    return mismatches(dataset, _rule(params))


# -- AREU fitting ----------------------------------------------------------


def _forced_edges(dataset: ChoiceDataset) -> set:
    """The (above, below) pairs with below ``_below`` above: the edges
    every valid reference order respects.  The spreads are the least-risky
    map's cached pairs; only worst-prize dilution is tested here."""
    prizes, _, vectors = _coords(dataset)
    return {(q, p) for p, q in _spreads(dataset)} | {
        (q, p) for p in vectors for q in vectors
        if p != q and _worst_dilution(prizes, vectors[p], vectors[q])}


def _close(order, edges):
    """``order`` (node -> the nodes below it, transitively closed) with
    the (above, below) ``edges`` added and closed again; None when an
    edge closes a cycle."""
    below = dict(order)
    for a, b in edges:
        if a in below[b]:
            return None
        lower = below[b] | {b}
        for x, under in below.items():
            if x == a or a in under:
                below[x] = under | lower
    return below


def _chains(items, order):
    """The linear extensions of the closed ``order`` on ``items``, in id
    order; the first puts the smallest id first wherever it can."""
    def rec(remaining):
        if not remaining:
            yield ()
            return
        for top in remaining:
            if not any(top in order[other] for other in remaining):
                for rest in rec([x for x in remaining if x != top]):
                    yield (top, *rest)

    yield from rec(sorted(items))


def _reference_assignments(dataset: ChoiceDataset, order):
    """DFS over per-menu admissible reference choices, largest menus
    first, each menu's candidates safest first (ties by id); yields
    ({menu: reference}, order) pairs, the closed ``order`` extended by
    each reference above the rest of its menu.

    A menu whose member the order already ranks above all the others is
    forced: that member is its only reference (any other would close a
    cycle), taken without ``_close`` when it is a candidate, since its
    edges are in the order already; with no such candidate the branch
    ends.

    On 3-prize grids each node carries its classes' u(1) intervals as
    ranks (see ``_menu_ranks``) and drops a child as soon as
    ``_order_admits`` rejects them under the child's order.  Completing a
    node only narrows its classes' intervals and adds edges, so a dropped
    child has no admitted completion, and every assignment yielded is
    admitted.  The search keeps one stack of open nodes, and each menu's
    members, candidates and ranks are read once, by position."""
    menus = sorted(dataset.menus(), key=len, reverse=True)  # stable: canonical within a size
    if not menus:
        yield {}, order
        return
    _, _, vectors = _coords(dataset)
    others = [{x: menu - {x} for x in menu} for menu in menus]
    candidates = [sorted(LEAST_RISKY_PSI.of(dataset, m), key=lambda i: (vectors[i], i))
                  for m in menus]
    ranks = (list(map(_menu_ranks(dataset).__getitem__, menus))
             if len(prize_grid(dataset)) == 3 else None)

    def children(pos, order, intervals):
        """The admitted (reference, order, intervals) children of a node
        at menu ``pos``, in search order."""
        refs, rest = candidates[pos], others[pos]
        top = next((x for x, below in rest.items() if order[x] >= below), None)
        if top is not None:
            refs = [top] if top in refs else []
        for ref in refs:
            child = intervals
            if ranks is not None:
                (lower, upper), held = ranks[pos], intervals.get(ref, ranks[pos])
                narrowed = (max(lower, held[0]), min(upper, held[1]))
                if narrowed != intervals.get(ref):
                    child = {**intervals, ref: narrowed}
            extended = order if top is not None else _close(
                order, ((ref, y) for y in rest[ref]))
            # a child with its parent's intervals and order is admitted, as the parent was
            if extended is not None and (child is intervals and extended is order
                                         or _order_admits(child, extended)):
                yield ref, extended, child

    assigned = [None] * len(menus)
    stack = [children(0, order, {})]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        depth = len(stack)  # the menus assigned, this child's included
        assigned[depth - 1], extended, intervals = child
        if depth < len(menus):
            stack.append(children(depth, extended, intervals))
        else:
            yield dict(zip(menus, assigned)), extended


def _uvars(label, n):
    """The LP variables of utility ``label`` at the interior prizes of an
    ``n``-prize grid; the endpoints are normalized to 0 and 1."""
    return [f"u[{label}][{i}]" for i in range(1, n - 1)]


def _menu_rows(dataset) -> dict:
    """Per observed menu, its EU-rationalization rows as (relation, head -
    other) pairs over its ``revealed_rows``, the differences in integers
    over D, built once per dataset."""
    def rows():
        diffs = _diff_table(dataset)
        return {menu: [(relation, diffs[(head, other)][0])
                       for relation, head, other in revealed_rows(dataset, menu)]
                for menu in dataset.menus()}
    return dataset.cached("menu-rows", rows)


def _utility_problem(dataset, groups):
    """The utility LP of ``groups``, (label, menus) pairs: per label a
    normalized, strictly increasing utility and the EU-rationalization
    rows of its menus, each distinct row once, in first-seen order.
    Every row is over the probabilities' common denominator D, so the
    EU rows are integer."""
    _, den, _ = _coords(dataset)
    menu_rows, n = _menu_rows(dataset), len(prize_grid(dataset))
    problem = LinearFeasibilityProblem(denominator=den)
    for label, menus in groups:
        names = _uvars(label, n)
        for k, name in enumerate(names):
            problem.add({name: den, names[k - 1]: -den} if k else {name: den}, ">", 0)
        if names:
            problem.add({names[-1]: den}, "<", den)
        for relation, diff in dict.fromkeys(row for menu in menus for row in menu_rows[menu]):
            # u is 0 at the worst prize and 1 at the best
            problem.add(dict(zip(names, diff[1:])), relation, -diff[-1])
    return problem


def _utilities(result, labels, n):
    """Each label's solved utility vector, endpoints included."""
    return {label: (_ZERO, *map(result.assignment.__getitem__, _uvars(label, n)), _ONE)
            for label in labels}


def _rho_monotone(chain, utilities) -> bool:
    _, rows = over_common_denominator(utilities[r] for r in chain)
    rhos = [_gap_ratios(u) for u in rows]
    return all(map(_more_concave, rhos, rhos[1:]))


# -- 3-prize grids: u(1) intervals -------------------------------------------
#
# With u(0) = 0 and u(2) = 1 fixed, a utility is its one value u(1), which
# is also its rho.  Every row of ``_menu_rows`` is then
# a*u(1) + c (= or >) 0, a bound on u(1) or, with a = 0, a constant test,
# so the utilities that rationalize a set of menus form an interval.  The
# rows are integers, and one scale L per dataset, a common multiple of
# every |a|, puts each root -c/a at the integer -c * (L // a), so u(1) is
# read as L * u(1) and (0, 1) becomes (0, L).  A bound is one ordered key:
# (value, 1) an open lower bound, (value, -1) an open upper bound,
# (value, 0) a closed one.  The tighter of two lower bounds is then their
# max, of two upper bounds their min, and an interval (lower, upper) is
# empty exactly when lower > upper.  Strict increase keeps it inside the
# open (0, L).


def _interval(rows, scale):
    """The u(1) interval of integer (a, c, relation) rows a*u(1) + c
    (relation) 0, relation "=" or ">", as keys scaled by ``scale``, a
    positive multiple of every nonzero |a|, inside the open (0, scale);
    one fixed empty pair when a constant row fails."""
    lower, upper = (0, 1), (scale, -1)
    for a, c, relation in rows:
        if a == 0:
            if not (c > 0 if relation == ">" else c == 0):
                return (scale, 1), (0, -1)
            continue
        root = -c * (scale // a)
        if relation == "=":
            lower, upper = max(lower, (root, 0)), min(upper, (root, 0))
        elif a > 0:
            lower = max(lower, (root, 1))
        else:
            upper = min(upper, (root, -1))
    return lower, upper


def _menu_ranks(dataset) -> dict:
    """Per observed menu, its own u(1) interval (3-prize grids) as ranks
    among the dataset's distinct bounds: the interval of its integer rows
    on the dataset's one scale, ranked once per dataset."""
    def ranked():
        rows = {menu: [(diff[1], diff[2], relation) for relation, diff in menu_rows]
                for menu, menu_rows in _menu_rows(dataset).items()}
        scale = math.lcm(*{abs(a) for menu_rows in rows.values() for a, _, _ in menu_rows if a})
        intervals = {menu: _interval(menu_rows, scale) for menu, menu_rows in rows.items()}
        rank = {key: k for k, key in enumerate(sorted(
            {key for pair in intervals.values() for key in pair}))}
        return {menu: (rank[lower], rank[upper]) for menu, (lower, upper) in intervals.items()}
    return dataset.cached("menu-intervals", ranked)


def _rho_interval(dataset, menus):
    """The u(1) interval of one utility over ``menus`` (3-prize grids), as
    ranks: the tightest of the menus' ``_menu_ranks``.  The menus hold
    fewer than twice as many distinct bounds as there are menus, so a
    class with no menus gets ranks outside all of them: the open (0, 1)."""
    per_menu = _menu_ranks(dataset)
    return (max((per_menu[menu][0] for menu in menus), default=-1),
            min((per_menu[menu][1] for menu in menus), default=2 * len(per_menu)))


def _order_admits(intervals, order):
    """Whether some chain of the closed ``order`` over the classes of
    ``intervals`` (ref -> interval of ordered keys) admits one value per
    class, weakly falling down the chain: exactly when each class's lower
    bound, raised by those of the classes below it, still fits under its
    upper bound.  (Sorting the classes by raised lower bound, ties by the
    order, gives such a chain.)  When ``order`` is itself a chain, it
    decides that one."""
    for ref, (lower, upper) in intervals.items():
        for x in order[ref]:
            if x in intervals and intervals[x][0] > lower:
                lower = intervals[x][0]
        if lower > upper:
            return False
    return True


def _solve_chain(dataset, classes, chain):
    """One utility per reference class (``classes`` maps ref -> menus),
    weakly more concave up ``chain``, the refs ordered safest first.

    On 3-prize grids ``_order_admits`` decides the chain exactly and the
    LP, with one concavity row per adjacent pair, runs only for a chain
    that passes, to return the certificate; None is then a proof that the
    chain has no utilities.  On 4+ prize grids: relax, post-check, then
    pin the gap ratios between adjacent classes to a refined rational
    grid, so None there means only "no certificate found"."""
    prizes = prize_grid(dataset)
    n = len(prizes)
    _, den, _ = _coords(dataset)
    if n == 3 and not _order_admits(
            {ref: _rho_interval(dataset, classes[ref]) for ref in chain},
            {ref: chain[k + 1:] for k, ref in enumerate(chain)}):
        return None
    groups = [(ref, classes[ref]) for ref in chain]
    problem = _utility_problem(dataset, groups)
    if n == 3:
        for hi, lo in zip(chain, chain[1:]):
            problem.add({_uvars(hi, n)[0]: den, _uvars(lo, n)[0]: -den}, ">=", 0)
    result = solve_linear_feasibility(problem)
    if not result:
        return None
    solution = _utilities(result, chain, n)
    if _rho_monotone(chain, solution):
        return solution
    rhos = [rho_vector(prizes, solution[r]) for r in chain]
    for denom in (64, 512):
        problem = _utility_problem(dataset, groups)
        for k in range(len(chain) - 1):
            hi, lo = chain[k], chain[k + 1]
            for i in range(1, n - 1):
                mid = (rhos[k][i - 1] + rhos[k + 1][i - 1]) / 2
                tau = Fraction(round(mid * denom), denom)
                # rho_i >= tau  <=>  u_i - u_{i-1} >= tau (u_{i+1} - u_{i-1}),
                # with u = 0 at the worst prize and 1 at the best
                weights = {i - 1: (tau - 1) * den, i: den, i + 1: -tau * den}
                for ref, relation in ((hi, ">="), (lo, "<=")):
                    names = dict(enumerate(_uvars(ref, n), 1))
                    problem.add({names[j]: w for j, w in weights.items() if j in names},
                                relation, -weights.get(n - 1, 0))
        result = solve_linear_feasibility(problem)
        if result:
            out = _utilities(result, chain, n)
            if _rho_monotone(chain, out):
                return out
    return None


def fit_areu(dataset: ChoiceDataset) -> AreuParams:
    """Search for an exact ordered-reference expected-utility certificate
    among the params ``AreuParams.validate`` accepts on the dataset's
    grid (the union of its supports): every order searched extends the
    ``_forced_edges``, the pairs validate forbids ranking the other way.

    Raises AxiomFails when the axiom battery already rejects the data and
    InfeasibleFit when no (reference assignment, order, utilities) triple
    certifies it.  On 3-prize grids the search drops a partial assignment
    once its classes' u(1) intervals fail, every chain is decided exactly
    by those intervals, and one LP gives the certificate, so
    InfeasibleFit is a proof that no such params exist.  On 4+ prize
    grids the cross-class concavity coupling uses a refined rational
    grid, so InfeasibleFit there means "no certificate found", not a
    proof of non-representability.
    """
    if dataset.kind != LOTTERY:
        raise ValidationError("fit_areu needs a lottery dataset")
    raise_first_failure(battery(dataset))
    prizes = prize_grid(dataset)
    nodes = sorted(dataset.universe)
    forced = _close({x: frozenset() for x in nodes}, _forced_edges(dataset))
    if forced is None:
        raise EmptyPsi("forced risk-consistency constraints are cyclic")

    for count, (assignment, order) in enumerate(_reference_assignments(dataset, forced)):
        classes = {}
        for menu, ref in assignment.items():
            classes.setdefault(ref, []).append(menu)
        for menus in classes.values():
            menus.sort(key=dataset.lattice().index.__getitem__)  # canonical order
        if count == 0:
            # one utility for every class has the same rows under every
            # assignment; solved once, in the first assignment's row order
            menus = [menu for class_menus in classes.values() for menu in class_menus]
            solution = _solve_chain(dataset, {"shared": menus}, ["shared"])
            shared = solution["shared"] if solution else None
        for chain in _chains(classes, order):
            solution = ({ref: shared for ref in chain} if shared is not None
                        else _solve_chain(dataset, classes, chain))
            if solution is None:
                continue
            ranking = next(_chains(nodes, _close(order, zip(chain, chain[1:]))))
            # each lottery takes the utility of the first reference at or
            # below it, the lowest reference's below the chain, and with no
            # menus (no chain) the one-utility solution
            utilities = {}
            utility = solution[chain[-1]] if chain else shared
            for alt in reversed(ranking):
                utility = solution.get(alt, utility)
                utilities[alt] = utility
            _, den, numerators = _coords(dataset)
            vectors = {alt: [Fraction(x, den) for x in vec] for alt, vec in numerators.items()}
            return AreuParams.build(prizes, vectors, ReferenceOrder(ranking), utilities)
    raise InfeasibleFit("no reference assignment and utility system certifies the data")


# -- triangle diagnostics --------------------------------------------------


class Fanning(enum.Enum):
    RISK_AVERSE_FAN_OUT = "RiskAverseFanOut"
    RISK_LOVING_FAN_IN = "RiskLovingFanIn"
    RISK_NEUTRAL = "RiskNeutral"
    MIXED_VIOLATION = "MixedViolation"


@dataclass(frozen=True)
class SlopeSample:
    """One sampled binary comparison: the worse point, its improvement
    direction, the reference used, and the indifference slope there."""

    worse: tuple  # (worst-prize mass, best-prize mass)
    better: tuple
    reference: str
    slope: Fraction


@dataclass(frozen=True)
class FanningReport:
    category: Fanning
    neutral_slope: Fraction
    samples: tuple


def _triangle_points(params: AreuParams, prizes, resolution):
    if len(prizes) != 3:
        raise NotATriangle("need exactly three prizes")
    if tuple(prizes) != params.prizes:
        raise NotATriangle("params are not over this prize grid")
    by_vector = {v: i for i, v in params.lotteries}
    k = int(resolution)
    if k < 1:
        raise ValidationError(f"resolution must be at least 1, got {k}")
    points = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            vec = (Fraction(i, k), Fraction(k - i - j, k), Fraction(j, k))
            alt = by_vector.get(vec)
            if alt is None:
                raise NotATriangle(
                    f"grid point (w={i}/{k}, b={j}/{k}) not named in the params")
            points[(i, j)] = alt
    return k, points


def _slope(u) -> Fraction:
    return (u[1] - u[0]) / (u[2] - u[1])


def fanning_classify(params: AreuParams, prizes, resolution) -> FanningReport:
    """Sample indifference slopes on the triangle grid and classify.

    Each sample is a dominance-adjacent binary menu; the slope used is
    the reference class of that menu per the fitted order.  Fan-out
    means slopes never decrease toward dominating lotteries.
    """
    prizes = tuple(Fraction(x) for x in prizes)
    k, points = _triangle_points(params, prizes, resolution)
    neutral = (prizes[1] - prizes[0]) / (prizes[2] - prizes[1])
    samples = []
    for (i, j), alt in sorted(points.items()):
        for di, dj in ((-1, 0), (0, 1)):  # west (less worst mass), north (more best)
            ni, nj = i + di, j + dj
            if (ni, nj) not in points:
                continue
            better = points[(ni, nj)]
            ref = params.order.argmax(frozenset((alt, better)))
            samples.append(SlopeSample(
                worse=(Fraction(i, k), Fraction(j, k)),
                better=(Fraction(ni, k), Fraction(nj, k)),
                reference=ref,
                slope=_slope(params.utility(ref)),
            ))
    entries = [((s.worse[0] + s.better[0]) / 2, (s.worse[1] + s.better[1]) / 2,
                s.slope) for s in samples]

    def monotone(bad):
        for wa, ba, sa in entries:
            for wb, bb, sb in entries:
                if wb <= wa and bb >= ba and (wb, bb) != (wa, ba) and bad(sb, sa):
                    return False
        return True

    ups = monotone(lambda sb, sa: sb < sa)
    downs = monotone(lambda sb, sa: sb > sa)
    slopes = {s.slope for s in samples}
    if slopes == {neutral}:
        category = Fanning.RISK_NEUTRAL
    elif all(s >= neutral for s in slopes) and ups:
        category = Fanning.RISK_AVERSE_FAN_OUT
    elif all(s <= neutral for s in slopes) and downs:
        category = Fanning.RISK_LOVING_FAN_IN
    else:
        category = Fanning.MIXED_VIOLATION
    return FanningReport(category, neutral, tuple(samples))


def triangle_rows(params: AreuParams, prizes, resolution) -> list:
    """CSV rows (p_b, p_w, reference_id, utility_level) over the grid."""
    prizes = tuple(Fraction(x) for x in prizes)
    k, points = _triangle_points(params, prizes, resolution)
    rows = []
    for (i, j), alt in sorted(points.items()):
        level = expected_utility(params.vector(alt), params.utility(alt))
        rows.append((format_rational(Fraction(j, k)),
                     format_rational(Fraction(i, k)),
                     alt,
                     format_rational(level)))
    return rows


def linkage_report_risk(dataset: ChoiceDataset) -> dict:
    """Global WARP and global Independence verdicts (witness lists)."""
    return linkage_report(dataset, independence=INDEPENDENCE)
