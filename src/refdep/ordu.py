"""Ordered-reference dependent utility: construction, evaluation, simulation.

The construction follows the finite representation argument: a linear
order splits the observed menus into one class per reference (the menus
it tops), and it represents the data when each class is closed under the
relation its choices reveal (Richter's congruence).  The order is peeled
from the top, each step taking the smallest-id member of the pool whose
class there is congruent; that member and the alternatives revealed
weakly above it are ranked by the closure's strict part, and everything
else gets a sentinel value strictly below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .choices import (
    Alternative,
    ChoiceDataset,
    GENERIC,
    WARP,
    mismatches,
    over_common_denominator,
    raise_first_failure,
    reference_rule,
    simulate,
)
from .engine import IDENTITY_PSI, ReferenceOrder, _blocked, check_reference_dependence
from .exceptions import (
    InfeasibleFit,
    UnionUnobserved,
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
        ids = set(order.ranking)
        if set(utilities) != ids or any(set(table) != ids for table in utilities.values()):
            raise ValidationError("utilities need one table per id of the order, "
                                  "each scoring exactly those ids")
        packed = tuple(sorted(
            (ref, tuple(sorted((alt, Fraction(v)) for alt, v in table.items())))
            for ref, table in utilities.items()))
        return OrduParams(order, packed)

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
        return OrduParams.build(order, utilities)


def _rule(params: OrduParams):
    """``choose(menu)``: the maximizers of the utility of the menu's top
    member, read once from integer tables over one denominator."""
    _, rows = over_common_denominator(
        [value for _, value in table] for _, table in params.utilities)
    tables = {ref: dict(zip((alt for alt, _ in table), row))
              for (ref, table), row in zip(params.utilities, rows)}
    return reference_rule(params.order.top, lambda ref, alt: tables[ref][alt])


def simulate_ordu(params: OrduParams, menus) -> ChoiceDataset:
    """The dataset choosing from each of ``menus`` by one rule."""
    return simulate(GENERIC, [Alternative(alt_id) for alt_id in sorted(params.order.ranking)],
                    menus, _rule(params))


def verify_ordu(params: OrduParams, dataset: ChoiceDataset) -> list:
    """``mismatches`` of one rule built for the whole dataset."""
    return mismatches(dataset, _rule(params))


def battery(dataset: ChoiceDataset):
    """The ORDU axiom as (check key, axiom name, witnesses)."""
    yield ("reference_dependence", "reference dependence (WARP / identity)",
           check_reference_dependence(dataset, WARP, IDENTITY_PSI))


def build_ordu(dataset: ChoiceDataset) -> OrduParams:
    """Fit an exact ordered-reference representation, or raise.

    The order is the smallest valid reference order in id order.  Raises
    AxiomFails with the reference-dependence witnesses, and InfeasibleFit
    when no order exists: no member of some pool of the peel has a
    congruent class there, yet any order's first member of that pool tops
    its class.
    """
    raise_first_failure(battery(dataset))
    lattice = dataset.lattice()
    blocked = _blocked(dataset, WARP)  # cached by the battery
    pool = sorted(dataset.universe)
    ranking, utilities = [], {}
    while pool:
        inside = lattice.within(pool)
        for x in pool:  # x would top its class: the menus in the pool holding it
            held = lattice.contain.get(x, 0) & inside
            if blocked.get(x, 0) & held:  # the class holds a WARP pair: not congruent
                continue
            family = lattice.at(held)
            above = _revealed_above(dataset, family)
            if _incongruence(dataset, family, above) is None:
                break
        else:  # every class here is incongruent, a skipped one too: name the first
            x = pool[0]
            family = lattice.at(lattice.contain.get(x, 0) & inside)
            menu, z, y = _incongruence(dataset, family, _revealed_above(dataset, family))
            raise InfeasibleFit(
                f"no member of {pool} tops a congruent class: the menus with "
                f"reference {x!r} reveal {z!r} weakly above {y!r}, "
                f"but {sorted(menu)} chooses {y!r} and not {z!r}")
        pool.remove(x)
        ranking.append(x)
        ranked = above.get(x, set()) | {x}
        layers = _layers(ranked, lambda a, b: a in above[b] and b not in above[a])
        table = dict.fromkeys(dataset.universe, Fraction(0))
        for level, layer in zip(range(len(ranked), 0, -1), layers):
            table.update(dict.fromkeys(layer, Fraction(level)))
        utilities[x] = table
    params = OrduParams.build(ReferenceOrder(tuple(ranking)), utilities)
    if verify_ordu(params, dataset):
        raise InfeasibleFit("the constructed utilities do not reproduce the data")
    return params


def _revealed_above(dataset: ChoiceDataset, family) -> dict:
    """alt -> the alternatives revealed weakly above it by the menus of
    ``family`` (x is revealed weakly above y when x is chosen from a menu
    holding y), transitively closed."""
    above = {}
    for menu in family:
        for y in menu:
            above.setdefault(y, set()).update(dataset.observations[menu])
    for k in above:  # Warshall: close through k
        for x in above:
            if k in above[x]:
                above[x] |= above[k]
    return above


def _incongruence(dataset: ChoiceDataset, family, above):
    """The first (menu, unchosen, chosen) of ``family`` whose unchosen
    member is revealed weakly above (``above``) its chosen one, or None."""
    for menu in family:
        chosen = dataset.observations[menu]
        for y in sorted(chosen):
            over = above[y] & (menu - chosen)
            if over:
                return menu, min(over), y
    return None


def _layers(members, beats) -> list | None:
    """``members`` peeled from the top: each layer holds the remaining
    members that no other remaining member ``beats``.  None when a cycle
    of ``beats`` leaves no top."""
    remaining = set(members)
    layers = []
    while remaining:
        top = {x for x in remaining
               if not any(beats(y, x) for y in remaining if y != x)}
        if not top:
            return None
        layers.append(top)
        remaining -= top
    return layers


# -- the necessary condition separating ORDU from rival models -----------


def _rationalized_by_single_ranking(dataset: ChoiceDataset, family) -> bool:
    """Richter's (1966) congruence: no menu may leave unchosen a member
    revealed weakly above one of its chosen members.  It holds exactly
    when one weak order picks every menu's choice as its best members."""
    family = [frozenset(m) for m in family]
    return _incongruence(dataset, family, _revealed_above(dataset, family)) is None


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
