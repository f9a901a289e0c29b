"""Social domain: income splits, equality reference dependence, fitting.

Own income enters utility linearly; the utility of the other's income
depends on the most balanced split attainable in the menu, measured by
the two-person Gini coefficient.  Lower attainable Gini (more equality
within reach) weakly raises every sharing increment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .choices import (
    ChoiceDataset,
    FiniteProperty,
    INCOME_SPLIT,
    SplitPayload,
    ViolationWitness,
    WARP,
    conjoin,
    invariance_over,
    linkage_report,
    mismatches,
    raise_first_failure,
    shift_correspondences,
    sort_witnesses,
    warp_over,  # noqa: F401  bench/tracing.py wraps it here
)
from .engine import PsiMap, check_reference_dependence
from .exceptions import (
    InfeasibleFit,
    UnknownAlternative,
    ValidationError,
)
from .feasibility import LinearFeasibilityProblem, solve_linear_feasibility
from .serialize import format_rational, parse_rational

_ZERO = Fraction(0)


def gini(split: SplitPayload) -> Fraction:
    """Two-income Gini: |own - other| / (2 (own + other)), in [0, 1/2)."""
    return abs(split.own - split.other) / (2 * (split.own + split.other))


def most_balanced(dataset: ChoiceDataset, menu) -> frozenset:
    ginis = {x: gini(dataset.payload(x)) for x in menu}
    best = min(ginis.values())
    return frozenset(x for x, g in ginis.items() if g == best)


MOST_BALANCED_PSI = PsiMap("most-balanced", most_balanced)


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
    witnesses = []
    for small, big in dataset.nested_pairs():
        c_small = dataset.observations[small]
        c_big = dataset.observations[big]
        for generous in sorted(c_small):
            g = dataset.payload(generous)
            for stingy in sorted(small):
                s = dataset.payload(stingy)
                if s.other >= g.other or stingy in c_small:
                    continue
                if stingy in c_big:
                    witnesses.append(ViolationWitness(
                        kind="Fairness",
                        menus=(small, big),
                        narrative=(f"{generous} (sharing {format_rational(g.other)}) "
                                   f"beat {stingy} (sharing {format_rational(s.other)}), "
                                   f"yet expansion revives {stingy}"),
                    ))
    return sort_witnesses(set(witnesses))


def check_social_monotonicity(dataset: ChoiceDataset) -> list:
    """Binary dominance: weakly more for both and strictly more for one wins."""
    witnesses = []
    for menu in dataset.menus():
        if len(menu) != 2:
            continue
        x, y = sorted(menu)
        px, py = dataset.payload(x), dataset.payload(y)
        winner = None
        if px.own >= py.own and px.other >= py.other and (px != py):
            winner = x
        elif py.own >= px.own and py.other >= px.other and (px != py):
            winner = y
        if winner is not None and dataset.observations[menu] != {winner}:
            witnesses.append(ViolationWitness(
                kind="SocialMonotonicity", menus=(menu,),
                narrative=f"{winner} dominates and must be the unique choice"))
    return witnesses


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
            for (y1, v1), (y2, v2), (y1h, v1h), (y2h, v2h) in zip(
                    t_lo, t_lo[1:], t_hi, t_hi[1:]):
                if v2 - v1 < v2h - v1h:
                    raise ValidationError(
                        f"increments at Gini {r_lo} must dominate those at {r_hi}")

    def references(self):
        return tuple(r for r, _ in self.tables)

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


def evaluate_fspu(params: FspuParams, splits: dict) -> frozenset:
    """``splits`` maps ids to SplitPayload; returns the chosen ids."""
    ref = min(gini(s) for s in splits.values())
    scores = {alt: s.own + params.value(ref, s.other) for alt, s in splits.items()}
    best = max(scores.values())
    return frozenset(alt for alt, v in scores.items() if v == best)


def simulate_fspu(params: FspuParams, alternatives, menus) -> ChoiceDataset:
    alts = {a.id: a for a in alternatives}
    floor = min(min(a.payload.own, a.payload.other) for a in alternatives)
    observations = {}
    for menu in menus:
        menu = frozenset(menu)
        observations[menu] = evaluate_fspu(
            params, {alt: alts[alt].payload for alt in menu})
    return ChoiceDataset(INCOME_SPLIT, alts, observations, floor=floor)


def verify_fspu(params: FspuParams, dataset: ChoiceDataset) -> list:
    return mismatches(dataset, lambda menu: evaluate_fspu(
        params, {alt: dataset.payload(alt) for alt in menu}))


def fit_fspu(dataset: ChoiceDataset) -> FspuParams:
    """Exact feasibility over the observed (reference Gini, other income)
    grid: chosen splits maximize own + v_ref(other), sharing utilities
    strictly increase, and increments weakly grow as the reference Gini
    falls."""
    if dataset.kind != INCOME_SPLIT:
        raise ValidationError("fit_fspu needs an income-split dataset")
    raise_first_failure(battery(dataset))
    refs = sorted({min(gini(dataset.payload(alt)) for alt in menu)
                   for menu in dataset.menus()})
    incomes = sorted({dataset.payload(alt).other for alt in dataset.universe})

    def build(var):
        problem = LinearFeasibilityProblem()
        for r in refs:
            for lo, hi in zip(incomes, incomes[1:]):
                problem.add({var(r, hi): 1, var(r, lo): -1}, ">", 0)
        for r_lo, r_hi in zip(refs, refs[1:]):
            for lo, hi in zip(incomes, incomes[1:]):
                coeffs = {}
                for name, weight in ((var(r_lo, hi), 1), (var(r_lo, lo), -1),
                                     (var(r_hi, hi), -1), (var(r_hi, lo), 1)):
                    coeffs[name] = coeffs.get(name, 0) + weight
                coeffs = {k: v for k, v in coeffs.items() if v != 0}
                if coeffs:
                    problem.add(coeffs, ">=", 0)
        for menu in dataset.menus():
            ref = min(gini(dataset.payload(alt)) for alt in menu)
            picked = sorted(dataset.observations[menu])
            head = picked[0]
            hs = dataset.payload(head)
            for other in sorted(menu):
                if other == head:
                    continue
                os_ = dataset.payload(other)
                coeffs = {}
                if hs.other != os_.other:
                    coeffs[var(ref, hs.other)] = Fraction(1)
                    coeffs[var(ref, os_.other)] = Fraction(-1)
                relation = "=" if other in dataset.observations[menu] else ">"
                problem.add(coeffs, relation, os_.own - hs.own)
        return problem

    # a single sharing table first: quasi-linear data stays quasi-linear
    shared = lambda r, y: f"v[shared][{format_rational(y)}]"
    result = solve_linear_feasibility(build(shared))
    if result:
        tables = tuple(
            (r, tuple((y, result.assignment[shared(r, y)]) for y in incomes))
            for r in refs)
        return FspuParams(tables)
    per_ref = lambda r, y: f"v[{format_rational(r)}][{format_rational(y)}]"
    result = solve_linear_feasibility(build(per_ref))
    if not result:
        raise InfeasibleFit("no sharing-utility family fits the data")
    tables = tuple(
        (r, tuple((y, result.assignment[per_ref(r, y)]) for y in incomes))
        for r in refs)
    return FspuParams(tables)


def linkage_report_social(dataset: ChoiceDataset) -> dict:
    return linkage_report(dataset, quasilinearity=QUASILINEARITY)
