"""Risk domain: lotteries, risk orders, expected-utility fitting.

Lotteries live on the dataset's prize grid (the sorted union of
supports) and are handled as exact probability vectors.  Two partial
risk orders drive everything: mean-preserving spreads and extreme
spreads; the admissible references of a menu are the members spread
over by nobody.  The fitted representation assigns one normalized
Bernoulli utility per reference, more concave for safer references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

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
    invariance_over,
    linkage_report,
    menu_key,
    mismatches,
    raise_first_failure,
    sort_witnesses,
    sorted_menus,
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
from .serialize import format_rational, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- prize grids and vectors ----------------------------------------------


def prize_grid(dataset: ChoiceDataset):
    def grid():
        prizes = set()
        for alt in dataset.alternatives.values():
            prizes.update(alt.payload.support())
        if len(prizes) < 2:
            raise PrizeSetMismatch("a lottery dataset needs at least two prizes")
        return tuple(sorted(prizes))
    return dataset.cached("prizes", grid)


def lottery_vector(payload: LotteryPayload, prizes) -> tuple:
    vec = [payload.prob(x) for x in prizes]
    if sum(vec, _ZERO) != 1:
        raise PrizeSetMismatch("lottery has mass outside the prize grid")
    return tuple(vec)


def _vectors(dataset: ChoiceDataset) -> dict:
    def table():
        prizes = prize_grid(dataset)
        return {alt_id: lottery_vector(alt.payload, prizes)
                for alt_id, alt in dataset.alternatives.items()}
    return dataset.cached("vectors", table)


def _check_same_grid(prizes, *vectors):
    for vec in vectors:
        if len(vec) != len(prizes):
            raise PrizeSetMismatch(
                f"vector of length {len(vec)} on a {len(prizes)}-prize grid")


# -- the risk orders -------------------------------------------------------


def fosd(prizes, p, q) -> bool:
    """p first-order stochastically dominates q (strictly somewhere)."""
    _check_same_grid(prizes, p, q)
    if p == q:
        return False
    fp = fq = _ZERO
    for i in range(len(prizes)):
        fp += p[i]
        fq += q[i]
        if fp > fq:
            return False
    return True


def mps(prizes, p, q) -> bool:
    """p is a mean-preserving spread of q.

    Equal means plus second-order dominance of q over p: the gap-weighted
    partial sums of the CDF difference stay nonnegative at every prize.
    """
    _check_same_grid(prizes, p, q)
    if p == q:
        return False
    mean_p = sum((prizes[i] * p[i] for i in range(len(prizes))), _ZERO)
    mean_q = sum((prizes[i] * q[i] for i in range(len(prizes))), _ZERO)
    if mean_p != mean_q:
        return False
    fp = fq = _ZERO
    acc = _ZERO
    for i in range(len(prizes) - 1):
        fp += p[i]
        fq += q[i]
        acc += (fp - fq) * (prizes[i + 1] - prizes[i])
        if acc < 0:
            return False
    return True


def extreme_spread(prizes, p, q) -> bool:
    """p mixes q with a best/worst bet whose best-prize weight falls
    strictly inside (q(best), 1 - q(worst))."""
    _check_same_grid(prizes, p, q)
    n = len(prizes)
    interior = range(1, n - 1)
    beta = None
    for i in interior:
        if q[i] != 0:
            beta = p[i] / q[i]
            break
    if beta is None:
        beta = _ZERO  # q lives on the extreme prizes only
    if not 0 <= beta < 1:
        return False
    for i in interior:
        if p[i] != beta * q[i]:
            return False
    alpha = (p[-1] - beta * q[-1]) / (1 - beta)
    if not q[-1] < alpha < 1 - q[0]:
        return False
    return p[0] == beta * q[0] + (1 - beta) * (1 - alpha)


def worst_dilution(prizes, p, q) -> bool:
    """p = beta*q + (1-beta)*(worst prize for sure), beta in [0,1), p != q.

    Not part of the least-risky map; used only to force the reference
    order in fitting (diluting toward the worst prize never makes a
    lottery safer).
    """
    _check_same_grid(prizes, p, q)
    if p == q:
        return False
    beta = None
    for i in range(1, len(prizes)):
        if q[i] != 0:
            beta = p[i] / q[i]
            break
    if beta is None:
        return False  # q is the degenerate worst-prize lottery
    if not 0 <= beta < 1:
        return False
    for i in range(1, len(prizes)):
        if p[i] != beta * q[i]:
            return False
    return p[0] == beta * q[0] + (1 - beta)


def riskier_than(prizes, p, q) -> bool:
    return mps(prizes, p, q) or extreme_spread(prizes, p, q)


def _spreads(dataset: ChoiceDataset) -> frozenset:
    """The dataset's (p, q) lottery pairs with p riskier than q."""
    def pairs():
        prizes = prize_grid(dataset)
        vectors = _vectors(dataset)
        return frozenset((p, q) for p in vectors for q in vectors
                         if p != q and riskier_than(prizes, vectors[p], vectors[q]))
    return dataset.cached("spreads", pairs)


def least_risky(dataset: ChoiceDataset, menu) -> frozenset:
    """The admissible references: members no other member spreads over."""
    spreads = _spreads(dataset)
    menu = sorted(menu)
    kept = frozenset(p for p in menu if not any((p, q) in spreads for q in menu))
    if not kept:
        raise EmptyPsi(f"all members of {menu} are spreads of one another")
    return kept


LEAST_RISKY_PSI = PsiMap("least-risky", least_risky)


# -- mixture detection -----------------------------------------------------


def _diff_key(vec):
    """Canonical (direction, sign) key; two diffs match a positive scalar
    multiple iff their keys are equal."""
    pivot = None
    for x in vec:
        if x != 0:
            pivot = x
            break
    if pivot is None:
        return None
    return (tuple(x / abs(pivot) for x in vec), pivot > 0)


def _diff_table(dataset: ChoiceDataset):
    def table():
        vectors = _vectors(dataset)
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
        vectors = _vectors(dataset)
        diffs = _diff_table(dataset)
        groups = {}
        for pair, (vec, key) in diffs.items():
            if key is not None:
                groups.setdefault(key, []).append(pair)
        corr = []
        for pairs in groups.values():
            for p, q in pairs:
                base = diffs[(p, q)][0]
                pivot = next(i for i, x in enumerate(base) if x != 0)
                for p2, q2 in pairs:
                    alpha = diffs[(p2, q2)][0][pivot] / base[pivot]
                    if not 0 < alpha < 1:
                        continue
                    mixer = tuple((x2 - alpha * x) / (1 - alpha)
                                  for x2, x in zip(vectors[p2], vectors[p]))
                    if all(x >= 0 for x in mixer):
                        a = format_rational(alpha)
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
    prizes = prize_grid(dataset)
    vectors = _vectors(dataset)
    witnesses = []
    for menu in dataset.menus():
        picked = dataset.observations[menu]
        for loser in sorted(picked):
            for winner in sorted(menu):
                if winner != loser and fosd(prizes, vectors[winner], vectors[loser]):
                    witnesses.append(ViolationWitness(
                        kind="FOSD",
                        menus=(menu,),
                        narrative=f"{loser} chosen although {winner} dominates it"))
    return witnesses


def check_avoidable_risk(dataset: ChoiceDataset) -> list:
    """Expanding a menu may only increase risk aversion.

    A violation is a nested pair small < big where the sure-ish side of a
    common decomposition wins in small while the risky side of a
    positively proportional decomposition wins strictly in big.
    """
    diffs = _diff_table(dataset)
    witnesses = []
    one_negative = {}
    for pair, (vec, key) in diffs.items():
        one_negative[pair] = key is not None and sum(1 for x in vec if x < 0) == 1
    for small, big in dataset.nested_pairs():
        c_small = dataset.observations[small]
        c_big = dataset.observations[big]
        for safe1 in sorted(c_small):
            for risky1 in sorted(small):
                if risky1 == safe1 or not one_negative[(risky1, safe1)]:
                    continue
                key1 = diffs[(risky1, safe1)][1]
                for risky2 in sorted(c_big):
                    for safe2 in sorted(big - c_big):
                        if risky2 == safe2:
                            continue
                        if diffs[(risky2, safe2)][1] == key1:
                            witnesses.append(ViolationWitness(
                                kind="AvoidableRisk",
                                menus=(small, big),
                                narrative=(
                                    f"{safe1} beats {risky1} in the sub-menu but the "
                                    f"proportional decomposition ({risky2} over "
                                    f"{safe2}) wins strictly after expansion"),
                            ))
    return sort_witnesses(witnesses)


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


def concavity_compare(prizes, u1, u2) -> Concavity:
    r1 = rho_vector(prizes, u1)
    r2 = rho_vector(prizes, u2)
    if r1 == r2:
        return Concavity.EQUAL
    if all(a >= b for a, b in zip(r1, r2)):
        return Concavity.MORE_CONCAVE
    if all(a <= b for a, b in zip(r1, r2)):
        return Concavity.LESS_CONCAVE
    return Concavity.INCOMPARABLE


# -- AREU parameters -------------------------------------------------------


@dataclass(frozen=True)
class AreuParams:
    """Reference order over named lotteries plus per-reference utilities.

    Utilities are normalized to 0 at the worst prize and 1 at the best,
    strictly increasing, and weakly more concave up the order.
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
        ranking = self.order.ranking
        vectors = dict(self.lotteries)
        for hi_pos, hi in enumerate(ranking):
            for lo in ranking[hi_pos + 1:]:
                if riskier_than(self.prizes, vectors[hi], vectors[lo]):
                    raise ValidationError(
                        f"order is not risk-consistent: {hi} is a spread of {lo}")
                if any(a < b for a, b in zip(rhos[hi], rhos[lo])):
                    raise ValidationError(
                        f"concavity must not increase down the order "
                        f"({hi} vs {lo})")

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
            ReferenceOrder(tuple(doc["order"])),
            {i: [parse_rational(x) for x in v] for i, v in doc["utilities"].items()},
        )


def expected_utility(vec, u) -> Fraction:
    return sum((p * x for p, x in zip(vec, u)), _ZERO)


def evaluate_areu(params: AreuParams, menu) -> Menu:
    menu = frozenset(menu)
    known = set(params.order.ranking)
    if not menu <= known:
        raise UnknownLottery(f"{sorted(menu - known)} not covered by the order")
    ref = params.order.argmax(menu)
    u = params.utility(ref)
    scores = {alt: expected_utility(params.vector(alt), u) for alt in menu}
    best = max(scores.values())
    return frozenset(alt for alt, s in scores.items() if s == best)


def simulate_areu(params: AreuParams, menus) -> ChoiceDataset:
    prizes = params.prizes
    alts = {}
    for alt_id, vec in params.lotteries:
        probs = tuple((x, p) for x, p in zip(prizes, vec) if p != 0)
        alts[alt_id] = Alternative(alt_id, LotteryPayload(probs))
    observations = {frozenset(m): evaluate_areu(params, m) for m in menus}
    return ChoiceDataset(LOTTERY, alts, observations)


def verify_areu(params: AreuParams, dataset: ChoiceDataset) -> list:
    return mismatches(dataset, lambda menu: evaluate_areu(params, menu))


# -- AREU fitting ----------------------------------------------------------


def _forced_edges(dataset: ChoiceDataset) -> set:
    """(above, below) pairs forced on any admissible reference order."""
    prizes = prize_grid(dataset)
    vectors = _vectors(dataset)
    spreads = _spreads(dataset)
    return {(q, p) for p in vectors for q in vectors if p != q
            and ((p, q) in spreads or worst_dilution(prizes, vectors[p], vectors[q]))}


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
    vectors = _vectors(dataset)
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
    coeffs, const = {}, _ZERO
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
    pairs: the first picked lottery ties each other picked one and
    strictly beats each unpicked one."""
    vectors = _vectors(dataset)
    picked = sorted(dataset.observations[menu])
    others = sorted(set(menu) - set(picked))
    head = vectors[picked[0]]
    for relation, rest in (("=", picked[1:]), (">", others)):
        for other in rest:
            yield relation, tuple(a - b for a, b in zip(head, vectors[other]))


def _class_constraints(problem, dataset, menu, label):
    """EU-rationalization constraints of one menu under utility ``label``."""
    n = len(prize_grid(dataset))
    for relation, diff in _menu_rows(dataset, menu):
        coeffs, const = _eu_row(label, enumerate(diff), n)
        problem.add(coeffs, relation, -const)


def _utility_problem(dataset, groups):
    """The utility LP of ``groups``, (label, menus) pairs: per label a
    normalized, strictly increasing utility and the EU-rationalization
    rows of its menus."""
    n = len(prize_grid(dataset))
    problem = LinearFeasibilityProblem()
    for label, menus in groups:
        last = None
        for i in range(1, n - 1):
            name = _uvar(label, i, n)
            problem.add({name: 1, last: -1} if last else {name: 1}, ">", 0)
            last = name
        if last is not None:
            problem.add({last: 1}, "<", 1)
        for menu in menus:
            _class_constraints(problem, dataset, menu, label)
    return problem


def _utilities(result, labels, n):
    """Each label's solved utility vector, endpoints included."""
    return {label: (_ZERO, *(result.assignment[_uvar(label, i, n)]
                             for i in range(1, n - 1)), _ONE)
            for label in labels}


def _rho_monotone(prizes, chain, utilities) -> bool:
    rhos = [rho_vector(prizes, utilities[r]) for r in chain]
    return all(all(a >= b for a, b in zip(rhos[i], rhos[i + 1]))
               for i in range(len(rhos) - 1))


# -- 3-prize grids: u(1) intervals -------------------------------------------
#
# With u(0) = 0 and u(2) = 1 fixed, a utility is its one value u(1), which
# is also its rho.  Every row of ``_menu_rows`` is then
# a*u(1) + c (= or >) 0, a bound on u(1) or, with a = 0, a constant test,
# so the utilities that rationalize a set of menus form an interval.  An
# interval is a (lower, upper) pair of (value, open) bounds, or None when
# empty; strict increase keeps it inside the open (0, 1).

_UNIT = ((_ZERO, True), (_ONE, True))


def _tighter_upper(u, v):
    """The smaller upper bound; at equal values the open one."""
    return min(u, v, key=lambda bound: (bound[0], not bound[1]))


def _meet(lower, upper):
    """The interval between two bounds, or None when they leave no value.
    At equal values the larger lower bound is the open one, so ``max``
    picks the tighter of two lower bounds."""
    (lo, lo_open), (hi, hi_open) = lower, upper
    if lo < hi or (lo == hi and not lo_open and not hi_open):
        return lower, upper
    return None


def _interval(rows):
    """The u(1) interval of (a, c, relation) rows a*u(1) + c (relation) 0,
    relation "=" or ">", inside the open (0, 1)."""
    lower, upper = _UNIT
    for a, c, relation in rows:
        if a == 0:
            if not (c > 0 if relation == ">" else c == 0):
                return None
            continue
        root = -c / a
        if relation == "=":
            lower = max(lower, (root, False))
            upper = _tighter_upper(upper, (root, False))
        elif a > 0:
            lower = max(lower, (root, True))
        else:
            upper = _tighter_upper(upper, (root, True))
    return _meet(lower, upper)


def _rho_interval(dataset, menus):
    """The u(1) interval of one utility over ``menus`` (3-prize grids)."""
    table = dataset.cached("rho-intervals", lambda: {
        menu: _interval((diff[1], diff[2], relation)
                        for relation, diff in _menu_rows(dataset, menu))
        for menu in dataset.menus()})
    lower, upper = _UNIT
    for menu in menus:
        interval = table[menu]
        if interval is None:
            return None
        lower, upper = max(lower, interval[0]), _tighter_upper(upper, interval[1])
    return _meet(lower, upper)


def _sweep(intervals):
    """Whether one value per interval exists, non-increasing down the list
    (safest class first): from the bottom, carry the lower bound up."""
    carried = _UNIT[0]
    for interval in reversed(intervals):
        if interval is None:
            return False
        carried = max(carried, interval[0])
        if _meet(carried, interval[1]) is None:
            return False
    return True


def _order_admits(intervals, order):
    """Whether some chain of the closed ``order`` over the classes of
    ``intervals`` (ref -> interval) passes ``_sweep``: exactly when each
    class's lower bound, raised by those of the classes below it, still
    fits under its upper bound.  (Sorting the classes by raised lower
    bound, ties by the order, gives a chain that passes.)"""
    if None in intervals.values():
        return False
    for ref, (lower, upper) in intervals.items():
        raised = max([lower] + [intervals[x][0] for x in order[ref] if x in intervals])
        if _meet(raised, upper) is None:
            return False
    return True


def _solve_chain(dataset, classes, chain):
    """One utility per reference class (``classes`` maps ref -> menus),
    weakly more concave up ``chain``, the refs ordered safest first.

    On 3-prize grids ``_sweep`` decides the chain exactly and the LP, with
    one concavity row per adjacent pair, runs only for a chain that
    passes, to return the certificate; None is then a proof that the
    chain has no utilities.  On 4+ prize grids: relax, post-check, then
    pin the gap ratios between adjacent classes to a refined rational
    grid, so None there means only "no certificate found"."""
    prizes = prize_grid(dataset)
    n = len(prizes)
    if n == 3 and not _sweep([_rho_interval(dataset, classes[ref]) for ref in chain]):
        return None
    groups = [(ref, classes[ref]) for ref in chain]
    problem = _utility_problem(dataset, groups)
    if n == 3:
        for hi, lo in zip(chain, chain[1:]):
            problem.add({_uvar(hi, 1, n): 1, _uvar(lo, 1, n): -1}, ">=", 0)
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
                        ref, ((i, _ONE), (i - 1, tau - 1), (i + 1, -tau)), n)
                    problem.add(coeffs, relation, -const)
        result = solve_linear_feasibility(problem)
        if result:
            out = _utilities(result, chain, n)
            if _rho_monotone(prizes, chain, out):
                return out
    return None


def fit_areu(dataset: ChoiceDataset) -> AreuParams:
    """Search for an exact ordered-reference expected-utility certificate.

    Raises AxiomFails when the axiom battery already rejects the data and
    InfeasibleFit when no (reference assignment, order, utilities) triple
    certifies it.  On 3-prize grids every assignment and chain is decided
    exactly by u(1) intervals, with one LP for the certificate, so
    InfeasibleFit is a proof that no such triple exists.  On 4+ prize
    grids the cross-class concavity coupling uses a refined rational
    grid, so InfeasibleFit there means "no certificate found", not a
    proof of non-representability.
    """
    if dataset.kind != LOTTERY:
        raise ValidationError("fit_areu needs a lottery dataset")
    raise_first_failure(battery(dataset))
    prizes = prize_grid(dataset)
    vectors = _vectors(dataset)
    nodes = sorted(dataset.universe)
    forced = _close({x: frozenset() for x in nodes}, _forced_edges(dataset))
    if forced is None:
        raise EmptyPsi("forced risk-consistency constraints are cyclic")

    three = len(prizes) == 3
    shared = None
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
            if not three or _rho_interval(dataset, menus) is not None:
                result = solve_linear_feasibility(_utility_problem(dataset, [("shared", menus)]))
                shared = _utilities(result, ["shared"], len(prizes))["shared"] if result else None
        if three and not _order_admits(
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
            return AreuParams.build(prizes, vectors, ReferenceOrder(ranking), utilities)
    raise InfeasibleFit("no reference assignment and utility system certifies the data")


# -- betweenness and transitivity over doubleton families ------------------


def betweenness_over(dataset: ChoiceDataset, family) -> list:
    fam = {frozenset(m) for m in family}
    doubles = sorted_menus(m for m in fam if len(m) == 2)
    vectors = _vectors(dataset)
    witnesses = []
    ids = sorted(dataset.universe)
    for pair in doubles:
        p, q = sorted(pair)
        for orientation in ((p, q), (q, p)):
            a, b = orientation
            for mid in ids:
                if mid in (a, b):
                    continue
                alpha = _mixture_weight(vectors[a], vectors[b], vectors[mid])
                if alpha is None or frozenset((a, mid)) not in fam \
                        or frozenset((mid, b)) not in fam:
                    continue
                c_ab = dataset.observations[pair]
                c_am = dataset.observations[frozenset((a, mid))]
                c_mb = dataset.observations[frozenset((mid, b))]
                if c_ab == {a}:
                    if c_am != {a} or c_mb != {mid}:
                        witnesses.append(ViolationWitness(
                            kind="Betweenness",
                            menus=(pair, frozenset((a, mid)), frozenset((mid, b))),
                            narrative=(f"{a} strictly beats {b} but the mixture "
                                       f"{mid} breaks the strict chain")))
                elif c_ab == pair:
                    if c_am != frozenset((a, mid)) or c_mb != frozenset((mid, b)):
                        witnesses.append(ViolationWitness(
                            kind="Betweenness",
                            menus=(pair, frozenset((a, mid)), frozenset((mid, b))),
                            narrative=(f"{a} and {b} tie but the mixture {mid} "
                                       f"breaks the indifference chain")))
    return sort_witnesses(set(witnesses))


def _mixture_weight(va, vb, vm):
    """alpha in (0,1) with vm = alpha va + (1-alpha) vb, else None."""
    alpha = None
    for x, y, z in zip(va, vb, vm):
        if x == y:
            if z != x:
                return None
            continue
        candidate = (z - y) / (x - y)
        if alpha is None:
            alpha = candidate
        elif alpha != candidate:
            return None
    if alpha is None or not 0 < alpha < 1:
        return None
    return alpha


def transitivity_over(dataset: ChoiceDataset, family) -> list:
    fam = {frozenset(m) for m in family}
    doubles = sorted_menus(m for m in fam if len(m) == 2)
    members = sorted({x for m in doubles for x in m})
    witnesses = []
    for trio in combinations(members, 3):
        menus = [frozenset(pair) for pair in combinations(trio, 2)]
        if not all(m in fam for m in menus):
            continue
        for p, q, s in permutations(trio):
            pq, qs, sp = frozenset((p, q)), frozenset((q, s)), frozenset((s, p))
            if p in dataset.observations[pq] and q in dataset.observations[qs] \
                    and p not in dataset.observations[sp]:
                witnesses.append(ViolationWitness(
                    kind="Transitivity",
                    menus=(pq, qs, sp),
                    narrative=f"{p} >= {q} >= {s} but {s} strictly beats {p}"))
    return sort_witnesses(set(witnesses))


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
