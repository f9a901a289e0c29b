"""Social domain: income splits, equality reference dependence, fitting.

Own income enters utility linearly; the utility of the other's income
depends on the most balanced split attainable in the menu, measured by
the two-person Gini coefficient.  Lower attainable Gini (more equality
within reach) weakly raises every sharing increment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .choices import (
    ChoiceDataset,
    FiniteProperty,
    INCOME_SPLIT,
    SplitPayload,
    WARP,
    conjoin,
    dominance_over,
    expansion_over,
    integer_payloads,
    invariance_over,
    linkage_report,
    mismatches,
    over_common_denominator,
    raise_first_failure,
    reference_rule,
    references_by_key,
    revealed_rows,
    shift_correspondences,
    simulate,
    warp_over,  # noqa: F401  bench/tracing.py wraps it here
)
from .engine import PsiMap, check_reference_dependence, lower_keys
from .exceptions import (
    InfeasibleFit,
    UnknownAlternative,
    ValidationError,
)
from .feasibility import LinearFeasibilityProblem, solve_linear_feasibility
from .serialize import format_rational, parse_rational


def gini(split: SplitPayload) -> Fraction:
    """Two-income Gini: |own - other| / (2 (own + other)), in [0, 1/2)."""
    return abs(split.own - split.other) / (2 * (split.own + split.other))


def _gini_levels(dataset: ChoiceDataset) -> tuple:
    """(per alternative its level, the dataset's distinct Gini
    coefficients ascending): level i is the i-th coefficient, so 0 is
    the most balanced.  Cached per dataset."""
    def levels():
        ginis = {alt: gini(a.payload) for alt, a in dataset.alternatives.items()}
        values = sorted(set(ginis.values()))
        rank = {g: i for i, g in enumerate(values)}
        return {alt: rank[g] for alt, g in ginis.items()}, values
    return dataset.cached("gini-levels", levels)


# a split is beaten by those at a strictly lower Gini level
MOST_BALANCED_PSI = PsiMap("most-balanced",
                           lambda dataset: lower_keys(_gini_levels(dataset)[0]))
most_balanced = MOST_BALANCED_PSI.of  # the members at the pool's lowest Gini level


def quasilinearity_over(dataset: ChoiceDataset, family) -> list:
    """Violations of invariance under a common own-payment shift."""
    shifts = shift_correspondences(dataset, "other", "own", lambda d: d != 0,
                                   "own-payment shift")
    return invariance_over(dataset, family, "Quasi-linearity", shifts)


QUASILINEARITY = FiniteProperty("Quasi-linearity", quasilinearity_over)
SOCIAL_PROPERTY = conjoin(WARP, QUASILINEARITY)


def check_equality_reference_dependence(dataset: ChoiceDataset) -> list:
    """Universal form: every most-balanced member of every menu must
    preserve WARP and Quasi-linearity on the sub-menus keeping it."""
    return check_reference_dependence(dataset, SOCIAL_PROPERTY, MOST_BALANCED_PSI,
                                      universal=True)


def check_fairness(dataset: ChoiceDataset) -> list:
    """Expanding a menu never flips the chooser from sharing more to
    sharing less."""
    den, other = integer_payloads(dataset)["other"]

    def sharing(alt):
        return format_rational(Fraction(other[alt], den))

    def clashes(small, big):
        c_small = dataset.observations[small]
        c_big = dataset.observations[big]
        for generous in sorted(c_small):
            for stingy in sorted(small):
                if other[stingy] < other[generous] and stingy not in c_small \
                        and stingy in c_big:
                    yield (f"{generous} (sharing {sharing(generous)}) "
                           f"beat {stingy} (sharing {sharing(stingy)}), "
                           f"yet expansion revives {stingy}")

    # per stingy alternative: the menus where it is present, unchosen and
    # beaten by a more generous choice, and those choosing it
    lattice = dataset.lattice()
    contain, chosen = lattice.contain, lattice.chosen
    sides = []
    for stingy, present in contain.items():
        beaten = 0
        for generous, mask in chosen.items():
            if other[stingy] < other[generous]:
                beaten |= mask
        sides.append((present & ~chosen.get(stingy, 0) & beaten, chosen.get(stingy, 0)))
    return expansion_over(dataset, "Fairness", sides, clashes)


def check_social_monotonicity(dataset: ChoiceDataset) -> list:
    """Binary dominance: weakly more for both and strictly more for one wins."""
    ints = integer_payloads(dataset)
    (_, own), (_, other) = ints["own"], ints["other"]

    def beats(x, y):
        return (own[x] >= own[y] and other[x] >= other[y]
                and (own[x], other[x]) != (own[y], other[y]))

    return dominance_over(
        dataset, [m for m in dataset.menus() if len(m) == 2], beats,
        lambda winner, _: ("SocialMonotonicity",
                           f"{winner} dominates and must be the unique choice"))


def battery(dataset: ChoiceDataset):
    """The FSPU axioms as (check key, axiom name, witnesses), in fit order."""
    yield "social_monotonicity", "social monotonicity", check_social_monotonicity(dataset)
    yield "fairness", "fairness", check_fairness(dataset)
    yield ("equality_reference_dependence", "equality reference dependence",
           check_equality_reference_dependence(dataset))


# -- parameters --------------------------------------------------------------


@dataclass(frozen=True)
class FspuParams:
    """Per attainable-equality level, a strictly increasing sharing
    utility on the observed other-income grid; lower Gini references
    carry weakly larger sharing increments."""

    tables: tuple  # tuple[(gini value, tuple[(other income, value), ...]), ...]

    def __post_init__(self):
        refs = [r for r, _ in self.tables]
        if refs != sorted(refs) or len(set(refs)) != len(refs):
            raise ValidationError("reference grid must be strictly sorted")
        grids = {tuple(y for y, _ in table) for _, table in self.tables}
        if len(grids) != 1:
            raise ValidationError("all references must share one income grid")
        (grid,) = grids
        if list(grid) != sorted(grid) or len(set(grid)) != len(grid):
            raise ValidationError("income grid must be strictly sorted")
        for _, table in self.tables:
            values = [v for _, v in table]
            if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
                raise ValidationError("sharing utility must be strictly increasing")
        for (r_lo, t_lo), (r_hi, t_hi) in zip(self.tables, self.tables[1:]):
            for (_, v1), (_, v2), (_, v1h), (_, v2h) in zip(
                    t_lo, t_lo[1:], t_hi, t_hi[1:]):
                if v2 - v1 < v2h - v1h:
                    raise ValidationError(
                        f"increments at Gini {r_lo} must dominate those at {r_hi}")

    def value(self, ref, other_income) -> Fraction:
        for r, table in self.tables:
            if r == ref:
                for y, v in table:
                    if y == other_income:
                        return v
                raise UnknownAlternative(
                    f"other-income {other_income} outside the fitted grid")
        raise UnknownAlternative(f"no sharing utility for reference {ref}")

    def to_json(self) -> dict:
        return {"tables": {format_rational(r): {format_rational(y): format_rational(v)
                                                for y, v in table}
                           for r, table in self.tables}}

    @staticmethod
    def from_json(doc) -> "FspuParams":
        tables = tuple(sorted(
            (parse_rational(r),
             tuple(sorted((parse_rational(y), parse_rational(v))
                          for y, v in table.items())))
            for r, table in doc["tables"].items()))
        return FspuParams(tables)


def _rule(params: FspuParams, splits: dict):
    """``choose(menu)`` over ``splits`` (id -> SplitPayload): the
    maximizers of own + v_r(other), r the menu's lowest Gini, on integers."""
    own_den, (owns,) = over_common_denominator([[s.own for s in splits.values()]])
    owns = dict(zip(splits, owns))
    den = math.lcm(*(v.denominator for _, table in params.tables for _, v in table))
    level = functools.cache(lambda alt: gini(splits[alt]))  # a split paying nothing has none

    def score(ref, alt):  # ref: a member of the lowest Gini
        value = params.value(level(ref), splits[alt].other)
        return owns[alt] * den + value.numerator * (den // value.denominator) * own_den

    return reference_rule(lambda members: min(members, key=level), score)


def simulate_fspu(params: FspuParams, alternatives, menus, floor=None) -> ChoiceDataset:
    """The dataset choosing from each of ``menus`` by one rule, with
    income ``floor`` (by default the lowest income of ``alternatives``).
    The splits and the floor are checked before the rule scores any
    split's Gini coefficient, undefined when the incomes sum to 0."""
    alts = {a.id: a for a in alternatives}
    if floor is None:
        floor = min((min(a.payload.own, a.payload.other) for a in alts.values()),
                    default=None)
    ChoiceDataset(INCOME_SPLIT, alts, {}, floor=floor)
    return simulate(INCOME_SPLIT, alts.values(), menus,
                    _rule(params, {alt: a.payload for alt, a in alts.items()}), floor=floor)


def verify_fspu(params: FspuParams, dataset: ChoiceDataset) -> list:
    """``mismatches`` of one rule built for the whole dataset."""
    return mismatches(dataset, _rule(params, {
        alt: a.payload for alt, a in dataset.alternatives.items()}))


def fit_fspu(dataset: ChoiceDataset) -> FspuParams:
    """Exact feasibility over the observed (reference Gini, other income)
    grid: chosen splits maximize own + v_ref(other), sharing utilities
    strictly increase, and increments weakly grow as the reference Gini
    falls."""
    if dataset.kind != INCOME_SPLIT:
        raise ValidationError("fit_fspu needs an income-split dataset")
    if not dataset.universe:
        raise ValidationError("fit_fspu needs at least one split; the universe is empty")
    raise_first_failure(battery(dataset))
    ints = integer_payloads(dataset)
    (den, own), (_, other) = ints["own"], ints["other"]
    level, gini_at = _gini_levels(dataset)
    references, refs = references_by_key(dataset, level.__getitem__)
    incomes = sorted(set(other.values()))
    income = {y: Fraction(y, den) for y in incomes}
    shown = {y: format_rational(income[y]) for y in incomes}
    shown_ref = {r: format_rational(gini_at[r]) for r in refs}

    def build(var):
        # every row times the income denominator S: integer rows over S
        problem = LinearFeasibilityProblem(denominator=den)
        for r in refs:
            for lo, hi in zip(incomes, incomes[1:]):
                problem.add({var(r, hi): den, var(r, lo): -den}, ">", 0)
        for r_lo, r_hi in zip(refs, refs[1:]):
            for lo, hi in zip(incomes, incomes[1:]):
                coeffs = {}
                for name, weight in ((var(r_lo, hi), den), (var(r_lo, lo), -den),
                                     (var(r_hi, hi), -den), (var(r_hi, lo), den)):
                    coeffs[name] = coeffs.get(name, 0) + weight
                if any(coeffs.values()):  # a shared table cancels every term
                    problem.add(coeffs, ">=", 0)
        for menu, ref in references.items():
            for relation, head, rest in revealed_rows(dataset, menu):
                coeffs = {var(ref, other[head]): den}
                low = var(ref, other[rest])
                coeffs[low] = coeffs.get(low, 0) - den
                problem.add(coeffs, relation, own[rest] - own[head])
        return problem

    # a single sharing table first: quasi-linear data stays quasi-linear;
    # a lone other-income is in no row, and any value serves it
    for var in (lambda r, y: f"v[shared][{shown[y]}]",
                lambda r, y: f"v[{shown_ref[r]}][{shown[y]}]"):
        result = solve_linear_feasibility(build(var))
        if result:
            return FspuParams(tuple(
                (gini_at[r], tuple((income[y], result.assignment.get(var(r, y), 0))
                                   for y in incomes))
                for r in refs))
    raise InfeasibleFit("no sharing-utility family fits the data")


def linkage_report_social(dataset: ChoiceDataset) -> dict:
    return linkage_report(dataset, quasilinearity=QUASILINEARITY)
