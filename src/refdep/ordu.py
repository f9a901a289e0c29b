"""Ordered-reference dependent utility: construction, evaluation, simulation.

The construction follows the finite representation argument: the
engine's candidate layering of the universe gives the reference order,
then for each alternative x rank its prediction set (the alternatives x
reference-dominates and that beat x in binary choice) with the observed
doubletons and tripletons containing x, and push everything else to a
sentinel value strictly below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .choices import (
    Alternative,
    ChoiceDataset,
    GENERIC,
    Menu,
    WARP,
    maximizers,
    mismatches,
    raise_first_failure,
    simulate,
)
from .engine import (
    IDENTITY_PSI,
    ReferenceOrder,
    check_reference_dependence,
    synthesize_reference_order,
)
from .exceptions import (
    InfeasibleFit,
    NotSubsetClosed,
    UnionUnobserved,
    UnknownAlternative,
    UnobservedMenu,
    ValidationError,
)
from .serialize import format_rational, ids_from_json, parse_rational


@dataclass(frozen=True)
class OrduParams:
    """A reference order plus one utility vector per reference."""

    order: ReferenceOrder
    utilities: tuple  # tuple[(ref_id, tuple[(alt_id, Fraction), ...]), ...]

    @staticmethod
    def build(order: ReferenceOrder, utilities) -> "OrduParams":
        packed = tuple(sorted(
            (ref, tuple(sorted((alt, Fraction(v)) for alt, v in table.items())))
            for ref, table in utilities.items()))
        return OrduParams(order, packed)

    def utility(self, ref_id) -> dict:
        for ref, table in self.utilities:
            if ref == ref_id:
                return dict(table)
        raise UnknownAlternative(f"no utility indexed by {ref_id!r}")

    def to_json(self) -> dict:
        return {
            "order": self.order.to_json(),
            "utilities": {ref: {alt: format_rational(v) for alt, v in table}
                          for ref, table in self.utilities},
        }

    @staticmethod
    def from_json(doc) -> "OrduParams":
        order = ReferenceOrder(tuple(ids_from_json(doc["order"], "order")))
        utilities = {ref: {alt: parse_rational(v) for alt, v in table.items()}
                     for ref, table in doc["utilities"].items()}
        keys = [*utilities, *(alt for table in utilities.values() for alt in table)]
        if not all(isinstance(key, str) for key in keys):
            raise ValidationError("utility keys must be alternative ids")
        return OrduParams.build(order, utilities)


def evaluate_ordu(params: OrduParams, menu) -> Menu:
    """All maximizers of the reference's utility over the menu."""
    menu = frozenset(menu)
    known = set(params.order.ranking)
    if not menu <= known:
        raise UnknownAlternative(f"{sorted(menu - known)} not covered by the order")
    table = params.utility(params.order.argmax(menu))
    try:
        return maximizers(menu, table.__getitem__)
    except KeyError as exc:
        raise UnknownAlternative(str(exc)) from exc


def simulate_ordu(params: OrduParams, menus) -> ChoiceDataset:
    return simulate(GENERIC, [Alternative(alt_id) for alt_id in sorted(params.order.ranking)],
                    menus, lambda menu: evaluate_ordu(params, menu))


def verify_ordu(params: OrduParams, dataset: ChoiceDataset) -> list:
    """Menus where the parameterization disagrees with the data."""
    return mismatches(dataset, lambda menu: evaluate_ordu(params, menu))


def maximal_menus(dataset: ChoiceDataset):
    lattice = dataset.lattice()
    return [m for pos, m in enumerate(lattice.menus) if lattice.containing(m) == 1 << pos]


def check_subset_closed(dataset: ChoiceDataset) -> None:
    """Every size->=2 subset of each maximal observed menu must be observed."""
    observed = set(dataset.observations)
    for maximal in maximal_menus(dataset):
        members = sorted(maximal)
        for size in range(2, len(members)):
            for sub in combinations(members, size):
                if frozenset(sub) not in observed:
                    raise NotSubsetClosed(
                        f"subset {set(sub)} of maximal menu {set(members)} unobserved")


def prediction_set(dataset: ChoiceDataset, order: ReferenceOrder, x) -> frozenset:
    """Alternatives x reference-dominates that weakly beat x in binary choice."""
    ranks = order.rank_map()
    out = {x}
    for y in order.ranking:
        if y == x or ranks[y] < ranks[x]:
            continue
        pair = frozenset((x, y))
        if pair in dataset.observations and y in dataset.observations[pair]:
            out.add(y)
    return frozenset(out)


def _rank_prediction_set(dataset: ChoiceDataset, x, pset) -> dict:
    """Total preorder on the prediction set, via menus containing x.

    Returns alt -> integer level, larger is better; ties share a level.
    Pairs never co-observed under reference x are tied (they never
    compete in any menu this utility decides).
    """
    members = sorted(pset)

    def weakly_better(a, b):
        if a == b:
            return True
        probe = frozenset((x, a, b))
        if probe in dataset.observations:
            return a in dataset.observations[probe]
        return True  # never co-observed: tie

    levels = {}
    level = len(members)
    remaining = list(members)
    while remaining:
        top = [a for a in remaining
               if all(weakly_better(a, b) for b in remaining)]
        if not top:
            raise InfeasibleFit(
                f"the menus with reference {x!r} rank its prediction set intransitively")
        for a in top:
            levels[a] = level
        remaining = [a for a in remaining if a not in top]
        level -= 1
    return levels


def battery(dataset: ChoiceDataset):
    """The ORDU axiom as (check key, axiom name, witnesses)."""
    yield ("reference_dependence", "reference dependence (WARP / identity)",
           check_reference_dependence(dataset, WARP, IDENTITY_PSI))


def build_ordu(dataset: ChoiceDataset) -> OrduParams:
    """Fit an exact ordered-reference representation, or raise.

    Raises NotSubsetClosed when observations are too sparse and
    AxiomFails with the reference-dependence witnesses when the data
    cannot be represented.  The constructed params are replayed on the
    data: on partial data (not every menu observed) the construction may
    fail where some representation exists, and raises InfeasibleFit.
    """
    check_subset_closed(dataset)
    raise_first_failure(battery(dataset))
    order = synthesize_reference_order(dataset, WARP, IDENTITY_PSI)
    utilities = {}
    for x in order.ranking:
        pset = prediction_set(dataset, order, x)
        levels = _rank_prediction_set(dataset, x, pset)
        table = {alt: Fraction(0) for alt in order.ranking}
        for alt, level in levels.items():
            table[alt] = Fraction(level)
        utilities[x] = table
    params = OrduParams.build(order, utilities)
    if verify_ordu(params, dataset):
        raise InfeasibleFit("the constructed utilities do not reproduce the data")
    return params


# -- the necessary condition separating ORDU from rival models -----------


def _rationalized_by_single_ranking(dataset: ChoiceDataset, family) -> bool:
    """Richter's (1966) congruence: with x revealed weakly above y when x
    is chosen from a menu holding y, and that relation transitively
    closed, no menu may leave unchosen a member revealed weakly above one
    of its chosen members.  It holds exactly when one weak order picks
    every menu's choice as its best members."""
    family = [frozenset(m) for m in family]
    above = {}  # alt -> the alternatives revealed weakly above it
    for menu in family:
        for y in menu:
            above.setdefault(y, set()).update(dataset.observations[menu])
    for k in above:  # Warshall: close through k
        for x in above:
            if k in above[x]:
                above[x] |= above[k]
    return not any(above[y] & (menu - dataset.observations[menu])
                   for menu in family for y in dataset.observations[menu])


def union_anchor_condition(dataset: ChoiceDataset, parts) -> bool:
    """Can some member of the union menu anchor classical maximization?

    For parts A1..An with observed union A, passes iff some x in A makes
    {A} plus the parts containing x rationalizable by one ranking.  Any
    ordered-reference representation must pass for every decomposition,
    so a failure certifies non-representability.
    """
    parts = [frozenset(p) for p in parts]
    for part in parts:
        if part not in dataset.observations:
            raise UnobservedMenu(f"part {sorted(part)} was not observed")
    union = frozenset().union(*parts)
    if union not in dataset.observations:
        raise UnionUnobserved(f"union {sorted(union)} was not observed")
    for x in sorted(union):
        family = [union] + [p for p in parts if x in p]
        if _rationalized_by_single_ranking(dataset, family):
            return True
    return False
