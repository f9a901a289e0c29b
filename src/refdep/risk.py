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
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .choices import (
    Alternative,
    ChoiceDataset,
    FiniteProperty,
    LOTTERY,
    LotteryPayload,
    Menu,
    ViolationWitness,
    WARP,
    conjoin,
    dominance_over,
    expansion_over,
    invariance_over,
    linkage_report,
    maximizers,
    menu_key,
    mismatches,
    over_common_denominator,
    raise_first_failure,
    revealed_rows,
    simulate,
    sort_witnesses,
    warp_over,  # noqa: F401  bench/tracing.py wraps it here
)
from .engine import (
    PsiMap,
    ReferenceOrder,
    check_reference_dependence,
    psi_table,
)
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


def _integer_coords(prizes, vectors: dict) -> tuple:
    """``prizes`` and the probability ``vectors`` (id -> tuple) as
    integers: (the prizes over their common denominator, the
    probabilities' common denominator D, id -> numerators over D)."""
    _, (scaled,) = over_common_denominator([prizes])
    den, rows = over_common_denominator(vectors.values())
    return scaled, den, dict(zip(vectors, rows))


def _coords(dataset: ChoiceDataset) -> tuple:
    """The dataset's lotteries on its prize grid as ``_integer_coords``."""
    def view():
        prizes = prize_grid(dataset)
        return _integer_coords(prizes, {alt_id: tuple(alt.payload.prob(x) for x in prizes)
                                        for alt_id, alt in dataset.alternatives.items()})
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
    num, den = next(((p[i], q[i]) for i in coords if q[i] != 0), (0, 1))
    if den < 0:
        num, den = -num, -den
    return (num, den) if all(p[i] * den == num * q[i] for i in coords) else None


def fosd(prizes, p, q) -> bool:
    """p first-order stochastically dominates q (strictly somewhere)."""
    _check_same_grid(prizes, p, q)
    return p != q and all(gap <= 0 for gap in _cdf_gaps(p, q))


def mps(prizes, p, q) -> bool:
    """p is a mean-preserving spread of q.

    Equal means plus second-order dominance of q over p: the gap-weighted
    partial sums of the CDF difference stay nonnegative at every prize.
    """
    _check_same_grid(prizes, p, q)
    if p == q or sum(x * (a - b) for x, a, b in zip(prizes, p, q)) != 0:
        return False
    steps = (hi - lo for lo, hi in zip(prizes, prizes[1:]))
    return all(acc >= 0 for acc in accumulate(
        gap * step for gap, step in zip(_cdf_gaps(p, q), steps)))


def extreme_spread(prizes, p, q) -> bool:
    """p mixes q with a best/worst bet whose best-prize weight falls
    strictly inside (q(best), 1 - q(worst)).  Scale-free: the total mass
    is read as sum(q), and the mixture weights are cross-multiplied."""
    _check_same_grid(prizes, p, q)
    beta = _scale(p, q, range(1, len(prizes) - 1))
    if beta is None or not 0 <= beta[0] < beta[1]:
        return False
    num, den = beta
    mass, rest = sum(q), den - num
    alpha = den * p[-1] - num * q[-1]  # the bet's best-prize weight, times den - num
    return (q[-1] * rest < alpha < (mass - q[0]) * rest
            and den * p[0] == num * q[0] + rest * mass - alpha)


def worst_dilution(prizes, p, q) -> bool:
    """p = beta*q + (1-beta)*(worst prize for sure), beta in [0,1), p != q.

    Not part of the least-risky map, but ranked below q as a spread is
    (``_below``): with the spread edges alone the reverse Allais data
    fits, ranking the diluted sure thing above the sure thing.
    """
    _check_same_grid(prizes, p, q)
    if p == q:
        return False
    beta = _scale(p, q, range(1, len(prizes)))
    if beta is None:
        return False
    num, den = beta
    return 0 <= num < den and den * p[0] == num * q[0] + (den - num) * sum(q)


def riskier_than(prizes, p, q) -> bool:
    return mps(prizes, p, q) or extreme_spread(prizes, p, q)


def _below(prizes, p, q) -> bool:
    """p is a spread or a worst-prize dilution of q, so ranks below it."""
    return riskier_than(prizes, p, q) or worst_dilution(prizes, p, q)


def _spreads(dataset: ChoiceDataset) -> frozenset:
    """The dataset's (p, q) lottery pairs with p riskier than q."""
    def pairs():
        prizes, _, vectors = _coords(dataset)
        return frozenset((p, q) for p in vectors for q in vectors
                         if p != q and riskier_than(prizes, vectors[p], vectors[q]))
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
        corr = []
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
                        a = format_rational(Fraction(num, den))
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


class Concavity(enum.Enum):
    MORE_CONCAVE = "MoreConcave"
    LESS_CONCAVE = "LessConcave"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def rho_vector(prizes, u) -> tuple:
    """Interior gap ratios (u_i - u_{i-1}) / (u_{i+1} - u_{i-1})."""
    _check_same_grid(prizes, u)
    if any(u[i] >= u[i + 1] for i in range(len(u) - 1)):
        raise NotIncreasing("utility vector must be strictly increasing")
    return tuple((u[i] - u[i - 1]) / (u[i + 1] - u[i - 1])
                 for i in range(1, len(u) - 1))


def _more_concave(r1, r2) -> bool:
    """Gap ratios ``r1`` are weakly more concave than ``r2``."""
    return all(a >= b for a, b in zip(r1, r2))


def concavity_compare(prizes, u1, u2) -> Concavity:
    r1, r2 = rho_vector(prizes, u1), rho_vector(prizes, u2)
    more, less = _more_concave(r1, r2), _more_concave(r2, r1)
    if more:
        return Concavity.EQUAL if less else Concavity.MORE_CONCAVE
    return Concavity.LESS_CONCAVE if less else Concavity.INCOMPARABLE


# -- AREU parameters -------------------------------------------------------


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
        prizes = tuple(Fraction(x) for x in prizes)
        lot = tuple(sorted((i, tuple(Fraction(x) for x in v))
                           for i, v in dict(lotteries).items()))
        uts = tuple(sorted((i, tuple(Fraction(x) for x in v))
                           for i, v in dict(utilities).items()))
        params = AreuParams(prizes, lot, order, uts)
        params.validate()
        return params

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
        for _, vec in self.lotteries:
            _check_same_grid(self.prizes, vec)
            if sum(vec, _ZERO) != 1 or any(x < 0 for x in vec):
                raise ValidationError("bad probability vector")
        rhos = {}
        for i, u in self.utilities:
            _check_same_grid(self.prizes, u)
            if u[0] != 0 or u[-1] != 1:
                raise ValidationError("utilities must be normalized to [0, 1]")
            rhos[i] = rho_vector(self.prizes, u)
        prizes, _, vectors = _integer_coords(self.prizes, dict(self.lotteries))
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
    menu's top member's utility, on integer vectors read once; each
    (reference, lottery) pair is scored once, on first use."""
    ranks = params.order.ranks
    _, _, vectors = _integer_coords(params.prizes, dict(params.lotteries))
    _, rows = over_common_denominator(u for _, u in params.utilities)
    utilities = dict(zip((ref for ref, _ in params.utilities), rows))

    @functools.cache
    def score(ref, alt):
        return sum(map(operator.mul, vectors[alt], utilities[ref]))

    def choose(menu):
        missing = menu.difference(ranks)
        if missing:
            raise UnknownLottery(f"{sorted(missing)} not covered by the order")
        ref = params.order.argmax(menu)
        return maximizers(menu, lambda alt: score(ref, alt))
    return choose


def evaluate_areu(params: AreuParams, menu) -> Menu:
    """All maximizers of the reference's expected utility over the menu."""
    return _rule(params)(frozenset(menu))


def check_lotteries(params: AreuParams, alternatives) -> None:
    """A ValidationError when an alternative the params name carries
    another lottery than the params' or a prize off their grid (its
    probabilities sum to 1, so either shows as a different vector on the
    grid).  Ids the params do not name are left to the choice rule."""
    named = dict(params.lotteries)
    for alt in alternatives:
        if alt.id in named and tuple(
                alt.payload.prob(x) for x in params.prizes) != named[alt.id]:
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
        if p != q and worst_dilution(prizes, vectors[p], vectors[q])}


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
    first; yields ({menu: reference}, order) pairs, the closed ``order``
    extended by each reference above the rest of its menu."""
    menus = sorted(dataset.menus(), key=lambda m: (-len(m), menu_key(m)))
    _, _, vectors = _coords(dataset)
    admissible = psi_table(dataset, LEAST_RISKY_PSI)
    candidates = {m: sorted(admissible[m], key=lambda i: vectors[i]) for m in menus}

    def rec(pos, assigned, order):
        if pos == len(menus):
            yield dict(assigned), order
            return
        menu = menus[pos]
        for ref in candidates[menu]:
            # a bigger menu's reference is already above the rest of that
            # menu, so where it lies in this one any other choice is a cycle
            extended = _close(order, ((ref, y) for y in menu if y != ref))
            if extended is not None:
                assigned[menu] = ref
                yield from rec(pos + 1, assigned, extended)
                del assigned[menu]

    yield from rec(0, {}, order)


def _uvar(label, i, n):
    """LP variable of utility ``label`` at prize ``i`` of ``n``; None at
    the endpoints, which are normalized to 0 and 1."""
    return None if i == 0 or i == n - 1 else f"u[{label}][{i}]"


def _eu_row(label, weights, n):
    """sum of w * u[label][i] over (i, w) in ``weights``, as LP
    coefficients plus the constant the normalized endpoints contribute."""
    coeffs, const = {}, 0
    for i, w in weights:
        name = _uvar(label, i, n)
        if name is None:
            if i == n - 1:
                const += w
        elif w != 0:
            coeffs[name] = w
    return coeffs, const


def _menu_rows(dataset, menu):
    """One menu's EU-rationalization rows as (relation, head - other)
    pairs over its ``revealed_rows``, the differences in integers over D."""
    diffs = _diff_table(dataset)
    for relation, head, other in revealed_rows(dataset, menu):
        yield relation, diffs[(head, other)][0]


def _utility_problem(dataset, groups):
    """The utility LP of ``groups``, (label, menus) pairs: per label a
    normalized, strictly increasing utility and the EU-rationalization
    rows of its menus.  Every row is over the probabilities' common
    denominator D, so the EU rows are integer."""
    n = len(prize_grid(dataset))
    _, den, _ = _coords(dataset)
    problem = LinearFeasibilityProblem(denominator=den)
    for label, menus in groups:
        last = None
        for i in range(1, n - 1):
            name = _uvar(label, i, n)
            problem.add({name: den, last: -den} if last else {name: den}, ">", 0)
            last = name
        if last is not None:
            problem.add({last: den}, "<", den)
        for menu in menus:
            for relation, diff in _menu_rows(dataset, menu):
                coeffs, const = _eu_row(label, enumerate(diff), n)
                problem.add(coeffs, relation, -const)
    return problem


def _utilities(result, labels, n):
    """Each label's solved utility vector, endpoints included."""
    return {label: (_ZERO, *(result.assignment[_uvar(label, i, n)]
                             for i in range(1, n - 1)), _ONE)
            for label in labels}


def _rho_monotone(prizes, chain, utilities) -> bool:
    rhos = [rho_vector(prizes, utilities[r]) for r in chain]
    return all(map(_more_concave, rhos, rhos[1:]))


# -- 3-prize grids: u(1) intervals -------------------------------------------
#
# With u(0) = 0 and u(2) = 1 fixed, a utility is its one value u(1), which
# is also its rho.  Every row of ``_menu_rows`` is then
# a*u(1) + c (= or >) 0, a bound on u(1) or, with a = 0, a constant test,
# so the utilities that rationalize a set of menus form an interval.  A
# bound is one ordered key: (value, 1) an open lower bound, (value, -1) an
# open upper bound, (value, 0) a closed one.  The tighter of two lower
# bounds is then their max, of two upper bounds their min, and an interval
# (lower, upper) is empty exactly when lower > upper.  Strict increase
# keeps it inside the open (0, 1).


def _interval(rows):
    """The u(1) interval of (a, c, relation) rows a*u(1) + c (relation) 0,
    relation "=" or ">", inside the open (0, 1); one fixed empty pair when
    a constant row fails."""
    lower, upper = (0, 1), (1, -1)
    for a, c, relation in rows:
        if a == 0:
            if not (c > 0 if relation == ">" else c == 0):
                return (1, 1), (0, -1)
            continue
        root = Fraction(-c, a)
        if relation == "=":
            lower, upper = max(lower, (root, 0)), min(upper, (root, 0))
        elif a > 0:
            lower = max(lower, (root, 1))
        else:
            upper = min(upper, (root, -1))
    return lower, upper


def _rho_interval(dataset, menus):
    """The u(1) interval of one utility over ``menus`` (3-prize grids), as
    ranks among the dataset's distinct bounds.  Each menu's own interval
    comes from its integer rows, ranked once per dataset.  The menus hold
    fewer than twice as many distinct bounds as there are menus, so a
    class with no menus gets ranks outside all of them: the open (0, 1)."""
    def ranked():
        intervals = {menu: _interval((diff[1], diff[2], relation)
                                     for relation, diff in _menu_rows(dataset, menu))
                     for menu in dataset.menus()}
        rank = {key: k for k, key in enumerate(sorted(
            {key for pair in intervals.values() for key in pair}))}
        return {menu: (rank[lower], rank[upper]) for menu, (lower, upper) in intervals.items()}
    per_menu = dataset.cached("menu-intervals", ranked)
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
    return all(max([lower] + [intervals[x][0] for x in order[ref] if x in intervals]) <= upper
               for ref, (lower, upper) in intervals.items())


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
            problem.add({_uvar(hi, 1, n): den, _uvar(lo, 1, n): -den}, ">=", 0)
    result = solve_linear_feasibility(problem)
    if not result:
        return None
    solution = _utilities(result, chain, n)
    if _rho_monotone(prizes, chain, solution):
        return solution
    rhos = [rho_vector(prizes, solution[r]) for r in chain]
    for denom in (64, 512):
        problem = _utility_problem(dataset, groups)
        for k in range(len(chain) - 1):
            hi, lo = chain[k], chain[k + 1]
            for i in range(1, n - 1):
                mid = (rhos[k][i - 1] + rhos[k + 1][i - 1]) / 2
                tau = Fraction(round(mid * denom), denom)
                # rho_i >= tau  <=>  u_i - u_{i-1} >= tau (u_{i+1} - u_{i-1})
                for ref, relation in ((hi, ">="), (lo, "<=")):
                    coeffs, const = _eu_row(
                        ref, ((i, den), (i - 1, (tau - 1) * den), (i + 1, -tau * den)), n)
                    problem.add(coeffs, relation, -const)
        result = solve_linear_feasibility(problem)
        if result:
            out = _utilities(result, chain, n)
            if _rho_monotone(prizes, chain, out):
                return out
    return None


def fit_areu(dataset: ChoiceDataset) -> AreuParams:
    """Search for an exact ordered-reference expected-utility certificate
    among the params ``AreuParams.validate`` accepts on the dataset's
    grid (the union of its supports): every order searched extends the
    ``_forced_edges``, the pairs validate forbids ranking the other way.

    Raises AxiomFails when the axiom battery already rejects the data and
    InfeasibleFit when no (reference assignment, order, utilities) triple
    certifies it.  On 3-prize grids every assignment and chain is decided
    exactly by u(1) intervals, with one LP for the certificate, so
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
            menus.sort(key=menu_key)
        if count == 0:
            # one utility for every class has the same rows under every
            # assignment; solved once, in the first assignment's row order
            menus = [menu for class_menus in classes.values() for menu in class_menus]
            solution = _solve_chain(dataset, {"shared": menus}, ["shared"])
            shared = solution["shared"] if solution else None
        if len(prizes) == 3 and not _order_admits(
                {ref: _rho_interval(dataset, menus) for ref, menus in classes.items()}, order):
            continue
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


# -- betweenness and transitivity over doubleton families ------------------


def _triangles(family) -> list:
    """Each ordered triple (x, y, z) of distinct alternatives whose
    doubletons {x, y}, {y, z} and {z, x} all lie in ``family``."""
    near = {}
    for menu in family:
        if len(menu) == 2:
            x, y = menu
            near.setdefault(x, set()).add(y)
            near.setdefault(y, set()).add(x)
    return [(x, y, z) for x in sorted(near) for y in sorted(near[x])
            for z in sorted(near[x] & near[y])]


def betweenness_over(dataset: ChoiceDataset, family) -> list:
    """A strict choice between a and b must stay strict against a
    mixture of the two (a over mid over b), and a tie must stay a tie."""
    _, _, vectors = _coords(dataset)
    observed = dataset.observations
    witnesses = []
    for a, b, mid in _triangles(family):
        if _mixture_weight(vectors[a], vectors[b], vectors[mid]) is None:
            continue
        pair, left, right = frozenset((a, b)), frozenset((a, mid)), frozenset((mid, b))
        if observed[pair] == {a}:
            expected = ({a}, {mid})
            narrative = f"{a} strictly beats {b} but the mixture {mid} breaks the strict chain"
        elif observed[pair] == pair:
            expected = (left, right)
            narrative = (f"{a} and {b} tie but the mixture {mid} "
                         f"breaks the indifference chain")
        else:
            continue
        if (observed[left], observed[right]) != expected:
            witnesses.append(ViolationWitness("Betweenness", (pair, left, right), narrative))
    return sort_witnesses(witnesses)


def _mixture_weight(va, vb, vm):
    """alpha in (0,1) with vm = alpha va + (1-alpha) vb, else None."""
    alpha = _scale([z - y for y, z in zip(vb, vm)], [x - y for x, y in zip(va, vb)],
                   range(len(va)))
    return Fraction(*alpha) if alpha is not None and 0 < alpha[0] < alpha[1] else None


def transitivity_over(dataset: ChoiceDataset, family) -> list:
    observed = dataset.observations
    witnesses = []
    for p, q, s in _triangles(family):
        pq, qs, sp = frozenset((p, q)), frozenset((q, s)), frozenset((s, p))
        if p in observed[pq] and q in observed[qs] and p not in observed[sp]:
            witnesses.append(ViolationWitness(
                "Transitivity", (pq, qs, sp), f"{p} >= {q} >= {s} but {s} strictly beats {p}"))
    return sort_witnesses(witnesses)


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
