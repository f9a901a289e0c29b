"""Choice datasets, WARP machinery, and the finite-property framework.

A dataset is a finite choice correspondence: a map from observed menus
(nonempty sets of alternative ids) to nonempty chosen subsets.  All
behavioral checkers in this package consume this one primitive.  Every
quantity attached to an alternative (probabilities, payments, incomes)
is an exact ``fractions.Fraction``; no checker ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exceptions import (
    AxiomFails,
    ChoiceOutsideMenu,
    DuplicateMenu,
    EmptyChoice,
    MixedPayloadKinds,
    UnobservedMenu,
    ValidationError,
)

Menu = frozenset  # frozenset[str]; aliased for readability in signatures

GENERIC = "generic"
LOTTERY = "lottery"
DATED_PAYMENT = "dated_payment"
INCOME_SPLIT = "income_split"
KINDS = (GENERIC, LOTTERY, DATED_PAYMENT, INCOME_SPLIT)


@dataclass(frozen=True)
class LotteryPayload:
    """A lottery as sorted (prize, probability) pairs with positive mass."""

    probs: tuple  # tuple[(Fraction prize, Fraction prob), ...]

    def support(self):
        return tuple(x for x, _ in self.probs)

    def prob(self, prize) -> Fraction:
        for x, p in self.probs:
            if x == prize:
                return p
        return Fraction(0)

    def mean(self) -> Fraction:
        return sum((x * p for x, p in self.probs), Fraction(0))


@dataclass(frozen=True)
class PaymentPayload:
    """A single dated payment: ``amount`` arriving at ``time``."""

    amount: Fraction
    time: Fraction


@dataclass(frozen=True)
class SplitPayload:
    """An income split: ``own`` for the chooser, ``other`` for the recipient."""

    own: Fraction
    other: Fraction


@dataclass(frozen=True)
class Alternative:
    id: str
    payload: object = None  # LotteryPayload | PaymentPayload | SplitPayload | None


def menu_key(menu: Menu):
    """Canonical sort key for menus: size, then sorted ids."""
    return (len(menu), tuple(sorted(menu)))


def sorted_menus(menus: Iterable[Menu]):
    return sorted(menus, key=menu_key)


@dataclass(frozen=True)
class ViolationWitness:
    """A certified axiom violation.

    ``menus`` are exactly the observations whose replay reproduces the
    failure of the named clause; ``narrative`` says which clause and how.
    """

    kind: str
    menus: tuple  # tuple[Menu, ...]
    narrative: str

    def sort_key(self):
        return (tuple(menu_key(m) for m in self.menus), self.kind, self.narrative)


def sort_witnesses(witnesses):
    return sorted(witnesses, key=ViolationWitness.sort_key)


@dataclass(frozen=True)
class FiniteProperty:
    """A behavioral postulate with finitely certified violations.

    ``evaluator(dataset, family)`` returns every violation witnessable
    inside ``family`` (a collection of observed menus); an empty list
    means the restricted data passes.  Evaluators must be local: the
    witnesses inside ``family`` are exactly the witnesses over all
    observed menus whose menus all lie in ``family``, in the same order.
    The reference engine relies on this: it evaluates each property
    once per dataset, over all observed menus, and answers every
    sub-family question by filtering those witnesses, so a
    user-supplied property that is not local gets wrong verdicts.
    """

    name: str
    evaluator: Callable

    def check(self, dataset: "ChoiceDataset", family) -> list:
        return self.evaluator(dataset, family)


def conjoin(*properties: FiniteProperty) -> FiniteProperty:
    """Intersection of finite properties; witnesses keep their conjunct's tag."""

    name = " & ".join(p.name for p in properties)

    def evaluator(dataset, family):
        out = []
        for prop in properties:
            out.extend(prop.check(dataset, family))
        return sort_witnesses(out)

    return FiniteProperty(name, evaluator)


class ChoiceDataset:
    """Finite choice correspondence over a universe of alternatives.

    Instances are immutable by convention.  ``observations`` maps each
    observed menu (frozenset of ids) to its nonempty chosen subset.
    """

    def __init__(self, kind, alternatives, observations, floor=None, _validated=False):
        self.kind = kind
        self.alternatives = dict(alternatives)  # id -> Alternative
        self.observations = {Menu(m): Menu(c) for m, c in observations.items()}
        self.floor = floor  # income floor, income_split datasets only
        self._cache = {}
        if not _validated:
            _check_invariants(self)

    # -- basic views -------------------------------------------------

    @property
    def universe(self) -> Menu:
        return Menu(self.alternatives)

    def menus(self):
        return sorted_menus(self.observations)

    def choice(self, menu: Menu) -> Menu:
        try:
            return self.observations[Menu(menu)]
        except KeyError:
            raise UnobservedMenu(f"menu {sorted(menu)} was not observed")

    def payload(self, alt_id: str):
        return self.alternatives[alt_id].payload

    def same_observations(self, other: "ChoiceDataset") -> bool:
        return self.observations == other.observations

    # -- derived structure (cached per dataset) ------------------------

    def cached(self, key, compute):
        """``compute()``, evaluated once per dataset and ``key``."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def observed_subsets(self, menu: Menu):
        """All observed menus contained in ``menu`` (including itself)."""
        target = Menu(menu)
        return [m for m in self.menus() if m <= target]

    def nested_pairs(self):
        """All observed (small, big) pairs with small a strict subset of big."""
        def pairs():
            menus = self.menus()
            return [(small, big) for big in menus for small in menus if small < big]
        return self.cached("nested", pairs)

    def restrict(self, family) -> "ChoiceDataset":
        """Keep only the observations in ``family``; universe unchanged."""
        family = [Menu(m) for m in family]
        for m in family:
            if m not in self.observations:
                raise UnobservedMenu(f"menu {sorted(m)} was not observed")
        kept = {m: self.observations[m] for m in family}
        return ChoiceDataset(self.kind, self.alternatives, kept,
                             floor=self.floor, _validated=True)


def _check_invariants(ds: ChoiceDataset) -> None:
    if ds.kind not in KINDS:
        raise ValidationError(f"unknown dataset kind {ds.kind!r}")
    payload_types = {
        GENERIC: type(None),
        LOTTERY: LotteryPayload,
        DATED_PAYMENT: PaymentPayload,
        INCOME_SPLIT: SplitPayload,
    }
    want = payload_types[ds.kind]
    for alt in ds.alternatives.values():
        if not isinstance(alt.payload, want):
            raise MixedPayloadKinds(
                f"alternative {alt.id!r} has payload {type(alt.payload).__name__}, "
                f"dataset kind is {ds.kind!r}")
    ids = ds.universe
    for menu, choice in ds.observations.items():
        if not menu:
            raise ValidationError("empty menu")
        if not menu <= ids:
            raise ValidationError(f"menu {sorted(menu)} not contained in the universe")
        if not choice:
            raise EmptyChoice(f"menu {sorted(menu)} has an empty choice")
        if not choice <= menu:
            raise ChoiceOutsideMenu(
                f"choice {sorted(choice)} not contained in menu {sorted(menu)}")
    if ds.kind == INCOME_SPLIT:
        floor = ds.floor if ds.floor is not None else Fraction(0)
        if floor <= 0:
            raise ValidationError("income floor must be positive")
        for alt in ds.alternatives.values():
            if alt.payload.own < floor or alt.payload.other < floor:
                raise ValidationError(
                    f"alternative {alt.id!r} pays below the floor {floor}")


def validate_dataset(kind, alternatives, observations, floor=None) -> ChoiceDataset:
    """Build a dataset from raw pieces, checking every invariant.

    ``observations`` may be any iterable of (menu, choice) id-collection
    pairs; duplicate menus are rejected rather than merged (observing the
    same menu twice with different choices has no agreed semantics).
    """
    alt_map = {}
    for alt in alternatives:
        if alt.id in alt_map:
            raise ValidationError(f"duplicate alternative id {alt.id!r}")
        alt_map[alt.id] = alt
    obs = {}
    if isinstance(observations, Mapping):
        observations = observations.items()
    for menu, choice in observations:
        key = Menu(menu)
        if key in obs:
            raise DuplicateMenu(f"menu {sorted(key)} observed twice")
        obs[key] = Menu(choice)
    return ChoiceDataset(kind, alt_map, obs, floor=floor)


# -- WARP ----------------------------------------------------------------


def warp_over(dataset: ChoiceDataset, family) -> list:
    """Violations of WARP inside ``family``.

    For observed menus B strictly inside A with c(A) meeting B, the clause
    requires c(A) ∩ B = c(B).  Every offending (A, B) pair is reported,
    sorted lexicographically by menu.
    """
    fam = [Menu(m) for m in family]
    for m in fam:
        if m not in dataset.observations:
            raise UnobservedMenu(f"menu {sorted(m)} was not observed")
    fam = sorted_menus(set(fam))
    witnesses = []
    for big in fam:
        c_big = dataset.observations[big]
        for small in fam:
            if small == big or not small < big:
                continue
            kept = c_big & small
            if kept and kept != dataset.observations[small]:
                witnesses.append(ViolationWitness(
                    kind="WARP",
                    menus=(big, small),
                    narrative=(
                        f"c({_fmt(big)}) ∩ {_fmt(small)} = {_fmt(kept)} "
                        f"but c({_fmt(small)}) = {_fmt(dataset.observations[small])}"),
                ))
    return sort_witnesses(witnesses)


def _fmt(ids) -> str:
    return "{" + ",".join(sorted(ids)) + "}"


WARP = FiniteProperty("WARP", warp_over)


def linkage_report(dataset: ChoiceDataset, **structural) -> dict:
    """Global WARP and each named structural property over all observed
    menus (witness lists)."""
    family = dataset.menus()
    return {"warp": WARP.check(dataset, family),
            **{key: prop.check(dataset, family) for key, prop in structural.items()}}


def raise_first_failure(battery) -> None:
    """Raise AxiomFails for the first entry of a model's ``battery``,
    (check key, axiom name, witnesses) triples, that has witnesses.  The
    whole battery is evaluated first, as ``check`` evaluates it."""
    for _, axiom, witnesses in list(battery):
        if witnesses:
            raise AxiomFails(axiom, witnesses)


# -- invariance under a transformation of the domain ------------------------


def family_masks(dataset: ChoiceDataset, family):
    """The family's menus in canonical order, with per-alternative
    bitmasks (bit i = menu i) of the menus containing it and of the menus
    choosing it."""
    menus = sorted_menus(frozenset(m) for m in family)
    contain, chosen = {}, {}
    for pos, menu in enumerate(menus):
        bit = 1 << pos
        picked = dataset.choice(menu)
        for alt in menu:
            contain[alt] = contain.get(alt, 0) | bit
            if alt in picked:
                chosen[alt] = chosen.get(alt, 0) | bit
    return menus, contain, chosen


def invariance_over(dataset: ChoiceDataset, family, kind, correspondences) -> list:
    """Violations of choice invariance under a transformation of the domain.

    Each correspondence ``(x, y, x2, y2, narrative)`` maps the pair x, y
    to its image x2, y2.  A witness is a menu of ``family`` choosing x
    alongside y, together with one choosing y2 while x2 is present and
    unchosen.
    """
    menus, contain, chosen = family_masks(dataset, family)
    witnesses = []
    for x, y, x2, y2, narrative in correspondences:
        mask_a = chosen.get(x, 0) & contain.get(y, 0)
        mask_b = chosen.get(y2, 0) & contain.get(x2, 0) & ~chosen.get(x2, 0)
        if not (mask_a and mask_b):
            continue
        for i, menu_a in enumerate(menus):
            if mask_a >> i & 1:
                for j, menu_b in enumerate(menus):
                    if mask_b >> j & 1:
                        witnesses.append(ViolationWitness(kind, (menu_a, menu_b), narrative))
    return sort_witnesses(witnesses)


def shift_correspondences(dataset: ChoiceDataset, fixed, moved, allowed, label):
    """Correspondences of a common shift of the payload coordinate
    ``moved`` with ``fixed`` held: x, y map to x2, y2 when both move by
    the same shift d with ``allowed(d)``.  Cached per dataset under
    ``label``, which names one transformation."""
    def correspondences():
        ids = sorted(dataset.universe)
        coords = {alt: (getattr(dataset.payload(alt), fixed),
                        getattr(dataset.payload(alt), moved)) for alt in ids}
        by_fixed = {}
        for alt in ids:
            by_fixed.setdefault(coords[alt][0], []).append(alt)
        out = []
        for x in ids:
            fx, mx = coords[x]
            for x2 in by_fixed[fx]:
                shift = coords[x2][1] - mx
                if not allowed(shift):
                    continue
                for y in ids:
                    if y == x:
                        continue
                    fy, my = coords[y]
                    for y2 in by_fixed[fy]:
                        if coords[y2][1] - my == shift:
                            # str(Fraction) is serialize.format_rational's form;
                            # serialize imports this module, so it is not used here
                            out.append((x, y, x2, y2, (
                                f"{x} chosen alongside {y}, but after a common {label} "
                                f"of {Fraction(shift)} the shifted {y2} is chosen "
                                f"while {x2} is not")))
        return out

    return dataset.cached(("shift", label), correspondences)


def mismatches(dataset: ChoiceDataset, choose) -> list:
    """(menu, predicted, observed) for every observed menu where the
    model's ``choose(menu)`` disagrees with the data."""
    out = []
    for menu in dataset.menus():
        predicted = choose(menu)
        if predicted != dataset.observations[menu]:
            out.append((menu, predicted, dataset.observations[menu]))
    return out


def restrict(dataset: ChoiceDataset, family) -> ChoiceDataset:
    """Functional alias for :meth:`ChoiceDataset.restrict`."""
    return dataset.restrict(family)
