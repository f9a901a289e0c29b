"""The unified reference-dependence engine.

Everything here is parameterized by a finite property T and an
admissible-reference map Psi.  A menu's candidate references are the
admissible members whose preservation keeps T intact on the observed
sub-menus; the generalized axiom asks every menu to have at least one
(or, in universal mode, demands it of every admissible member).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Callable

from .choices import ChoiceDataset, FiniteProperty, Menu, bits, outside
from .exceptions import EmptyPsi, UnknownAlternative


@dataclass(frozen=True)
class PsiMap:
    """Admissible-reference map given by a relation: Psi of a pool keeps
    the members of the pool that no member of the pool beats.

    ``beats(dataset)`` returns, per alternative, the ids that beat it
    (alternatives beaten by none may be left out); it may read payloads
    (spreads of lotteries, payment times, ...).  Such a map is hereditary
    by construction, and it admits a member of every nonempty pool iff
    the relation has no cycle, which is checked once per dataset.
    """

    name: str
    beats: Callable

    def of(self, dataset: ChoiceDataset, pool) -> frozenset:
        beaten = _relation(dataset, self)
        return frozenset(x for x in pool if x not in beaten or beaten[x].isdisjoint(pool))


IDENTITY_PSI = PsiMap("identity", lambda dataset: {})


def lower_keys(keys: dict) -> dict:
    """The lower-key relation of ``keys`` (id -> comparable key) as
    ``PsiMap.beats`` gives it: per id, the ids of strictly lower key."""
    return {x: [y for y in keys if keys[y] < k] for x, k in keys.items()}


def _relation(dataset: ChoiceDataset, psi: PsiMap) -> dict:
    """``psi.beats(dataset)`` as frozensets, cached per dataset and map.
    Raises EmptyPsi, naming its members, when the relation has a cycle."""
    def build():
        beaten = {x: frozenset(ys) for x, ys in psi.beats(dataset).items() if ys}
        try:
            TopologicalSorter({x: sorted(ys) for x, ys in sorted(beaten.items())}).prepare()
        except CycleError as exc:
            raise EmptyPsi(f"{psi.name}: {' beats '.join(exc.args[1])}, so no member of "
                           f"{sorted(set(exc.args[1]))} is admissible") from None
        return beaten
    return dataset.cached(("psi relation", psi), build)


def _admits(dataset: ChoiceDataset, psi: PsiMap) -> dict:
    """Per alternative x, the mask of the observed menus admitting it:
    those holding x and no member beating x.  Cached per dataset and map."""
    def build():
        contain = dataset.lattice().contain
        beaten = _relation(dataset, psi)
        admits = {}
        for x, holding in contain.items():
            for y in beaten.get(x, ()):
                holding &= ~contain.get(y, 0)
            admits[x] = holding
        return admits
    return dataset.cached(("psi admits", psi), build)


def witness_index(dataset: ChoiceDataset, prop: FiniteProperty) -> list:
    """T's witnesses over all observed menus, cached per dataset and property.

    Since T is local, its witnesses on any family of observed menus are
    the entries whose menus all lie in the family, in the same order.
    """
    return dataset.cached(("witnesses", prop),
                          lambda: prop.check(dataset, dataset.menus()))


def _witness_masks(dataset: ChoiceDataset, prop: FiniteProperty):
    """Per alternative, the witness-index entries (bit k = entry k) whose
    union holds it and those whose every menu holds it, OR-ed from the
    entries naming each observed menu.  Raises UnobservedMenu for an entry
    naming a menu that was not observed."""
    def masks():
        index = witness_index(dataset, prop)
        if not index:
            return {}, {}
        lattice = dataset.lattice()
        naming = [0] * len(lattice.menus)  # per lattice position
        for k, witness in enumerate(index):
            for menu in witness.menus:
                naming[lattice.position(menu)] |= 1 << k
        named = [(lattice.menus[pos], entries) for pos, entries in enumerate(naming) if entries]
        spans, shared = {}, {}
        for x in lattice.contain:
            inside = elsewhere = 0
            for menu, entries in named:
                if x in menu:
                    inside |= entries
                else:
                    elsewhere |= entries
            if inside:
                spans[x] = inside
                if inside & ~elsewhere:
                    shared[x] = inside & ~elsewhere
        return spans, shared
    return dataset.cached(("witness masks", prop), masks)


def _blocked(dataset: ChoiceDataset, prop: FiniteProperty) -> dict:
    """Per alternative x, the observed menus on which x cannot be the
    reference: those containing every menu of some witness-index entry
    whose menus all hold x.  Cached per dataset and property.  The
    property's blocking rule gives them when it has one; otherwise they
    are derived from its witness index, and an entry naming a menu that
    was not observed raises UnobservedMenu."""
    def masks():
        if prop.blocking is not None:
            return prop.blocking(dataset)
        lattice = dataset.lattice()
        universe = dataset.universe
        blocked, above = {}, {}  # above: menu -> the observed menus containing it
        for witness in witness_index(dataset, prop):
            pools = lattice.full
            for menu in witness.menus:
                if menu not in above:
                    lattice.position(menu)  # UnobservedMenu for a menu not observed
                    above[menu] = lattice.containing(menu)
                pools &= above[menu]
            for x in universe.intersection(*witness.menus):
                blocked[x] = blocked.get(x, 0) | pools
        return blocked
    return dataset.cached(("blocked", prop), masks)


@dataclass(frozen=True)
class ReferenceOrder:
    """Strict total order over alternative ids, highest-ranked first."""

    ranking: tuple
    ranks: dict = field(init=False, repr=False, compare=False)  # id -> position

    def __post_init__(self):
        ranks = {alt_id: i for i, alt_id in enumerate(self.ranking)}
        if len(ranks) != len(self.ranking):
            raise ValueError("ranking has duplicates")
        object.__setattr__(self, "ranks", ranks)

    def argmax(self, menu) -> str:
        return min(menu, key=self.ranks.__getitem__)

    def top(self, members, missing=UnknownAlternative) -> str:
        """The highest-ranked of ``members``; before that, ``missing``
        naming the sorted ids the order does not cover, if any."""
        off = set(members).difference(self.ranks)
        if off:
            raise missing(f"{sorted(off)} not covered by the order")
        return self.argmax(members)

    def to_json(self):
        return list(self.ranking)


def _blocking(dataset: ChoiceDataset, prop: FiniteProperty, psi: PsiMap, pool) -> list:
    """(x, mask) for each admissible member x of ``pool`` in id order: the
    witness-index entries that are T's violations on the observed menus
    inside ``pool`` that contain x."""
    admissible = psi.of(dataset, pool)
    spans, shared = _witness_masks(dataset, prop)
    elsewhere = outside(spans, pool)
    return [(x, shared.get(x, 0) & ~elsewhere) for x in sorted(admissible)]


def candidate_references(dataset: ChoiceDataset, prop: FiniteProperty,
                         psi: PsiMap) -> dict:
    """Per observed menu, the candidate-reference set (a CandidateMap):
    the admissible members x for which the data restricted to observed
    menus inside the menu that contain x satisfies T."""
    return {menu: frozenset(x for x, blocking in _blocking(dataset, prop, psi, menu)
                            if not blocking)
            for menu in dataset.menus()}


@dataclass(frozen=True)
class ReferenceDependenceFailure:
    """A menu with no working reference, with each admissible member's
    blocking violations."""

    menu: Menu
    per_candidate: tuple  # tuple[(str, tuple[ViolationWitness, ...]), ...]


def check_reference_dependence(dataset: ChoiceDataset, prop: FiniteProperty,
                               psi: PsiMap, universal: bool = False) -> list:
    """Empty list iff the generalized reference-dependence axiom holds.

    Existential form (default): every observed menu needs some admissible
    member preserving T on the observed sub-menus containing it.  With
    ``universal=True`` every admissible member must do so (the social
    domain's stronger quantifier); failures then list only the broken
    candidates.  The failing menus are decided on lattice masks, from
    the menus admitting each alternative and those blocking it (see
    ``_blocked``); T's witnesses are listed only when some menu fails,
    and each broken candidate's only on the failing menus.
    """
    admits = _admits(dataset, psi)
    blocked = _blocked(dataset, prop)
    lattice = dataset.lattice()
    kept = broken = 0
    for x, admitting in admits.items():
        stuck = admitting & blocked.get(x, 0)
        broken |= stuck
        kept |= admitting & ~stuck
    failing = broken if universal else lattice.full & ~kept
    if not failing:
        return []
    index = witness_index(dataset, prop)
    failures = []
    for pos in bits(failing):
        menu = lattice.menus[pos]
        failures.append(ReferenceDependenceFailure(menu, tuple(
            (x, tuple(index[k] for k in bits(blocking)))
            for x, blocking in _blocking(dataset, prop, psi, menu) if blocking)))
    return failures
