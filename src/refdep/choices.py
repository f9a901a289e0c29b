"""Choice datasets, the choice rule, WARP machinery, and the finite-property framework.

A dataset is a finite choice correspondence: a map from observed menus
(nonempty sets of alternative ids) to nonempty chosen subsets.  All
behavioral checkers in this package consume this one primitive.  Every
quantity attached to an alternative (probabilities, payments, incomes)
is an exact ``fractions.Fraction``; no checker ever rounds.
"""

from __future__ import annotations

import functools
import math
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


@dataclass(frozen=True)
class LotteryPayload:
    """A lottery as sorted (prize, probability) pairs with positive mass,
    each prize once; pairs given with zero mass are dropped."""

    probs: tuple  # tuple[(Fraction prize, Fraction prob), ...]

    def __post_init__(self):
        if sum((p for _, p in self.probs), Fraction(0)) != 1 \
                or any(p < 0 for _, p in self.probs):
            raise ValidationError("lottery probabilities must be >= 0 and sum to 1")
        object.__setattr__(self, "probs", tuple(sorted((x, p) for x, p in self.probs if p)))
        if len({x for x, _ in self.probs}) != len(self.probs):
            raise ValidationError("a lottery must list each prize once")

    def prob(self, prize) -> Fraction:
        for x, p in self.probs:
            if x == prize:
                return p
        return Fraction(0)


@dataclass(frozen=True)
class PaymentPayload:
    """A single dated payment: ``amount`` arriving at ``time``."""

    amount: Fraction
    time: Fraction

    def __post_init__(self):
        if not (self.amount > 0 and self.time >= 0):
            raise ValidationError("payments need amount > 0 and time >= 0")


@dataclass(frozen=True)
class SplitPayload:
    """An income split: ``own`` for the chooser, ``other`` for the recipient."""

    own: Fraction
    other: Fraction


# each dataset kind -> the class of payload its alternatives carry
KINDS = {GENERIC: type(None), LOTTERY: LotteryPayload,
         DATED_PAYMENT: PaymentPayload, INCOME_SPLIT: SplitPayload}


@dataclass(frozen=True)
class Alternative:
    id: str
    payload: object = None  # LotteryPayload | PaymentPayload | SplitPayload | None


def menu_key(menu: Menu):
    """Canonical sort key for menus: size, then sorted ids."""
    return (len(menu), tuple(sorted(menu)))


def sorted_menus(menus: Iterable[Menu]):
    return sorted(menus, key=menu_key)


@dataclass(frozen=True, slots=True)
class ViolationWitness:
    """A certified axiom violation.

    ``menus`` are exactly the observations whose replay reproduces the
    failure of the named clause; ``narrative`` says which clause and how.
    """

    kind: str
    menus: tuple  # tuple[Menu, ...]
    narrative: str

    def sort_key(self):
        """Menus in canonical order, kind, then narrative."""
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
    The reference engine relies on this: it evaluates each property at
    most once per dataset, over all observed menus, and answers every
    sub-family question by filtering those witnesses, so a
    user-supplied property that is not local gets wrong verdicts.  Each
    witness must name observed menus only; the engine raises
    UnobservedMenu for one that does not.

    ``blocking(dataset)``, optional, returns per alternative x the mask
    of observed menus (``MenuLattice`` positions) on which x cannot be
    the reference: those containing every menu of some witness whose
    menus all hold x.  It must agree with the witnesses.  With a rule
    the engine lists the witnesses only once some menu fails; without
    one it derives the masks from the witness list.
    """

    name: str
    evaluator: Callable
    blocking: Callable | None = None

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
    observed menu (frozenset of ids) to its nonempty chosen subset, in
    the order the menus were first given.  The constructor takes them as
    a mapping or as (menu, choice) pairs of id collections; a menu given
    twice is a DuplicateMenu, not a merge (observing the same menu twice
    with different choices has no agreed semantics).
    """

    def __init__(self, kind, alternatives, observations, floor=None):
        self.kind = kind
        self.alternatives = dict(alternatives)  # id -> Alternative
        pairs = observations.items() if isinstance(observations, Mapping) else list(observations)
        self.observations = {Menu(m): Menu(c) for m, c in pairs}
        if len(self.observations) < len(pairs):
            repeat = first_repeat(Menu(m) for m, _ in pairs)
            raise DuplicateMenu(f"menu {sorted(repeat)} observed twice")
        self.floor = floor  # income floor, income_split datasets only
        self._cache = {}
        _check_invariants(self)

    # -- basic views -------------------------------------------------

    @property
    def universe(self) -> Menu:
        return Menu(self.alternatives)

    def menus(self) -> tuple:
        """The observed menus in canonical order."""
        return self.lattice().menus

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

    def lattice(self) -> "MenuLattice":
        """The dataset's menu lattice, built on first use."""
        return self.cached("lattice", lambda: MenuLattice(self))


def bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def outside(masks: dict, pool) -> int:
    """The union of the per-alternative masks of the alternatives not in
    ``pool``: the positions of the sets not contained in ``pool``."""
    out = 0
    for alt, mask in masks.items():
        if alt not in pool:
            out |= mask
    return out


class MenuLattice:
    """A dataset's observed menus as bit positions, so that "which
    observed menus lie inside (or contain) which" is big-int algebra.

    Bit i stands for ``menus[i]``, the i-th observed menu in canonical
    order.  ``contain[a]`` and ``chosen[a]`` mask the menus that contain
    and that choose alternative a, and are all the lattice keeps: a
    menu's observed sub-menus (``within``) and super-menus
    (``containing``) are derived from them where they are read.
    """

    def __init__(self, dataset: ChoiceDataset):
        self.menus = tuple(sorted_menus(dataset.observations))
        self.index = {menu: pos for pos, menu in enumerate(self.menus)}
        self.full = (1 << len(self.menus)) - 1
        contain, chosen = {}, {}
        for pos, menu in enumerate(self.menus):
            bit = 1 << pos
            for alt in menu:
                contain[alt] = contain.get(alt, 0) | bit
            for alt in dataset.observations[menu]:
                chosen[alt] = chosen.get(alt, 0) | bit
        self.contain, self.chosen = contain, chosen

    def within(self, pool) -> int:
        """The observed menus contained in ``pool``."""
        return self.full & ~outside(self.contain, pool)

    def containing(self, members) -> int:
        """The observed menus containing every one of ``members``."""
        out = self.full
        for alt in members:
            out &= self.contain.get(alt, 0)
        return out

    def position(self, menu) -> int:
        """The position of ``menu``; UnobservedMenu when it was not observed."""
        menu = Menu(menu)
        pos = self.index.get(menu)
        if pos is None:
            raise UnobservedMenu(f"menu {sorted(menu)} was not observed")
        return pos

    def mask(self, family) -> int:
        """The menus of ``family``; UnobservedMenu for one not observed.
        The lattice's own ``menus`` tuple is every menu, with no lookup."""
        if family is self.menus:
            return self.full
        out = 0
        for menu in family:
            out |= 1 << self.position(menu)
        return out

    def at(self, mask: int) -> list:
        """The menus at the set bits of ``mask``, in canonical order."""
        return [self.menus[pos] for pos in bits(mask)]


def first_repeat(menus):
    """The first of ``menus`` equal to an earlier one, or None."""
    seen = set()
    for menu in menus:
        if menu in seen:
            return menu
        seen.add(menu)


def payload_class(kind) -> type:
    """The class of payload the alternatives of ``kind`` carry; a
    ValidationError for an unknown kind."""
    want = KINDS.get(kind) if isinstance(kind, str) else None
    if want is None:
        raise ValidationError(f"unknown dataset kind {kind!r}")
    return want


def _check_invariants(ds: ChoiceDataset) -> None:
    """The first fault of ``ds``: kind and payloads, then the observations
    in order (each menu nonempty and in the universe, then its choice
    nonempty and in the menu), then the floor.  Set tests over all the
    observations decide whether any of them is at fault."""
    want = payload_class(ds.kind)
    for alt in ds.alternatives.values():
        if not isinstance(alt.payload, want):
            raise MixedPayloadKinds(
                f"alternative {alt.id!r} has payload {type(alt.payload).__name__}, "
                f"dataset kind is {ds.kind!r}")
    ids, menus, choices = ds.universe, ds.observations, ds.observations.values()
    if Menu() in menus or not Menu().union(*menus) <= ids \
            or not all(choices) or not all(map(Menu.issubset, choices, menus)):
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
    elif ds.floor is not None:
        raise ValidationError(f"a floor applies only to {INCOME_SPLIT} data, not {ds.kind}")


def over_common_denominator(rows) -> tuple:
    """(D, each row of rationals in ``rows`` as a tuple of integer
    numerators over D), with D the lcm of all their denominators."""
    rows = list(rows)
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return den, [tuple(x.numerator * (den // x.denominator) for x in row) for row in rows]


# payload fields that share one denominator in the integer view, per kind
_SCALED_TOGETHER = {DATED_PAYMENT: (("amount",), ("time",)),
                    INCOME_SPLIT: (("own", "other"),)}


def integer_payloads(dataset: ChoiceDataset) -> dict:
    """A payment or split dataset's payloads as integers, cached per
    dataset: field -> (D, id -> numerator over D).  Amounts and times
    are each over their own common denominator.  Own and other income
    share one, since the Gini coefficient is invariant only under a
    common scale.  Comparisons, sums and differences within a field
    read these integers; ``Fraction(n, D)`` gives a value back."""
    def view():
        ids = list(dataset.alternatives)
        out = {}
        for fields in _SCALED_TOGETHER[dataset.kind]:
            den, rows = over_common_denominator(
                [tuple(getattr(dataset.payload(alt), f) for f in fields) for alt in ids])
            for i, field_name in enumerate(fields):
                out[field_name] = den, {alt: row[i] for alt, row in zip(ids, rows)}
        return out
    return dataset.cached("integers", view)


def alternatives_by_id(alternatives) -> dict:
    """id -> alternative, in the given order; a ValidationError naming
    the first id given twice."""
    by_id = {}
    for alt in alternatives:
        if alt.id in by_id:
            raise ValidationError(f"duplicate alternative id {alt.id!r}")
        by_id[alt.id] = alt
    return by_id


def validate_dataset(kind, alternatives, observations, floor=None) -> ChoiceDataset:
    """Build a dataset from a list of alternatives, checking every
    invariant; ``observations`` as ``ChoiceDataset`` takes them."""
    return ChoiceDataset(kind, alternatives_by_id(alternatives), observations, floor=floor)


# -- WARP ----------------------------------------------------------------


def warp_over(dataset: ChoiceDataset, family) -> list:
    """Violations of WARP inside ``family``.

    For observed menus B strictly inside A with c(A) meeting B, the clause
    requires c(A) ∩ B = c(B).  Every offending (A, B) pair is reported,
    A and then B in canonical order, which is ``sort_witnesses`` order.
    """
    lattice = dataset.lattice()
    fam = lattice.mask(family)
    witnesses = []
    positions = range(len(lattice.menus)) if fam == lattice.full else bits(fam)
    for pos, smalls in _warp_scan(dataset, positions):
        big = lattice.menus[pos]
        c_big = dataset.observations[big]
        for small in lattice.at(smalls & fam):
            witnesses.append(ViolationWitness("WARP", (big, small), _warp_narrative(
                big, c_big, small, dataset.observations[small])))
    return witnesses


def _warp_scan(dataset: ChoiceDataset, positions):
    """(position, smalls) for each menu A at ``positions`` (ascending)
    with an observed sub-menu on which WARP fails: ``smalls`` masks the
    sub-menus B that meet c(A) and keep a member of c(A) they do not
    choose or choose a member of A outside c(A).  The one scan under
    ``warp_over`` and ``_warp_blocking``."""
    lattice = dataset.lattice()
    menus, observations, within = lattice.menus, dataset.observations, lattice.within
    contain, chosen = lattice.contain, lattice.chosen
    unchosen = {alt: contain[alt] & ~mask for alt, mask in chosen.items()}
    size = None
    for pos in positions:  # ascending: each smaller menu sits below a size's first position
        big = menus[pos]
        if len(big) != size:
            size, smaller = len(big), (1 << pos) - 1
        c_big = observations[big]
        meets = differs = 0
        for alt in big:
            if alt in c_big:
                meets |= contain[alt]
                differs |= unchosen[alt]
            else:
                differs |= chosen.get(alt, 0)
        smalls = meets & differs & smaller
        if smalls:
            smalls &= within(big)
            if smalls:
                yield pos, smalls


def _warp_blocking(dataset: ChoiceDataset) -> dict:
    """WARP's blocking rule: x cannot be the reference on the menus
    containing an observed menu A with a WARP-violating sub-menu that
    holds x.  Exact, since every WARP witness (A, B) has B inside A: the
    menus holding both are those above A, and the members they share
    are those of B."""
    lattice = dataset.lattice()
    blocked = {}
    for pos, smalls in _warp_scan(dataset, range(len(lattice.menus))):
        big = lattice.menus[pos]
        pools = lattice.containing(big)
        for x in big:
            if smalls & lattice.contain[x]:
                blocked[x] = blocked.get(x, 0) | pools
    return blocked


def _warp_narrative(big, c_big, small, c_small) -> str:
    return (f"c({_fmt(big)}) ∩ {_fmt(small)} = {_fmt(c_big & small)} "
            f"but c({_fmt(small)}) = {_fmt(c_small)}")


def _fmt(ids) -> str:
    return "{" + ",".join(sorted(ids)) + "}"


WARP = FiniteProperty("WARP", warp_over, _warp_blocking)


def linkage_report(dataset: ChoiceDataset, **structural) -> dict:
    """Global WARP and each named structural property over all observed
    menus (witness lists)."""
    family = dataset.menus()
    return {"warp": WARP.check(dataset, family),
            **{key: prop.check(dataset, family) for key, prop in structural.items()}}


def raise_first_failure(battery) -> None:
    """Raise AxiomFails for the first entry of a model's ``battery``,
    (check key, axiom name, witnesses) triples, that has witnesses.  The
    battery is a generator, so the axioms after the first failure are
    never evaluated."""
    for _, axiom, witnesses in battery:
        if witnesses:
            raise AxiomFails(axiom, witnesses)


# -- the choice rule: a menu's reference fixes a score, choice maximizes it ----


def maximizers(menu, score) -> frozenset:
    """The members of ``menu`` with the highest ``score``, scored in
    order, so the first failing score raises.  The models' rules score
    on integers, so equal scores are exact ties."""
    scores = {alt: score(alt) for alt in menu}
    best = max(scores.values())
    return frozenset(alt for alt, value in scores.items() if value == best)


def reference_rule(reference, score):
    """The choice rule of a reference-dependent model: ``choose(menu)``
    gives the maximizers of ``score(ref, alt)`` over the menu's members
    in id order, with ``ref = reference(members)`` read on the sorted
    members.  Each (reference, alternative) pair is scored once, on first
    use, so an alternative no menu holds is never scored, and the first
    failing score names the smallest-id offender whatever the hash seed."""
    score = functools.cache(score)

    def choose(menu):
        members = sorted(menu)
        ref = reference(members)
        return maximizers(members, lambda alt: score(ref, alt))
    return choose


def references_by_key(dataset: ChoiceDataset, key) -> tuple:
    """(menu -> its reference, the references ascending) for a fit whose
    reference is a menu's least ``key`` over its members.  With no
    observations the one reference is the universe's least key, which
    needs a nonempty universe."""
    references = {menu: min(map(key, menu)) for menu in dataset.menus()}
    return references, sorted(set(references.values()) or {min(map(key, dataset.universe))})


def simulate(kind, alternatives, menus, choose, floor=None) -> ChoiceDataset:
    """The dataset over ``alternatives`` that chooses ``choose(menu)`` from
    each of ``menus``."""
    return ChoiceDataset(kind, {alt.id: alt for alt in alternatives},
                         {menu: choose(menu) for menu in map(Menu, menus)}, floor=floor)


def revealed_rows(dataset: ChoiceDataset, menu):
    """The menu's revealed-preference rows as (relation, head, other): the
    first chosen member ties ("=") each other chosen member, then strictly
    beats (">") each unchosen one, both in id order."""
    picked = sorted(dataset.observations[menu])
    unpicked = sorted(menu - dataset.observations[menu])
    for relation, rest in (("=", picked[1:]), (">", unpicked)):
        for other in rest:
            yield relation, picked[0], other


# -- invariance under a transformation of the domain, and dominance ----------


def invariance_over(dataset: ChoiceDataset, family, kind, correspondences) -> list:
    """Violations of choice invariance under a transformation of the domain.

    Each correspondence ``(x, y, x2, y2, narrative)`` maps the pair x, y
    to its image x2, y2.  A witness is a menu of ``family`` choosing x
    alongside y, together with one choosing y2 while x2 is present and
    unchosen.
    """
    lattice = dataset.lattice()
    fam = lattice.mask(family)
    contain, chosen = lattice.contain, lattice.chosen
    witnesses = []
    for x, y, x2, y2, narrative in correspondences:
        mask_a = fam & chosen.get(x, 0) & contain.get(y, 0)
        mask_b = fam & chosen.get(y2, 0) & contain.get(x2, 0) & ~chosen.get(x2, 0)
        if mask_a and mask_b:
            menus_b = lattice.at(mask_b)
            for menu_a in lattice.at(mask_a):
                for menu_b in menus_b:
                    witnesses.append(ViolationWitness(kind, (menu_a, menu_b), narrative))
    return sort_witnesses(witnesses)


def dominance_over(dataset: ChoiceDataset, menus, beats, describe) -> list:
    """Violations of dominance on ``menus``: one witness per menu, chosen
    member ``loser`` and member ``winner`` with ``beats(winner, loser)``,
    menus in canonical order, then losers and winners in id order;
    ``describe(winner, loser)`` gives its kind and narrative.  ``beats``
    must be pure: it is called once per ordered pair that meets in one
    of ``menus``, the loser chosen there, and witnesses are listed only
    on the menus where a beating pair meets."""
    lattice = dataset.lattice()
    fam = lattice.mask(menus)
    beating, flagged = set(), 0
    for loser, chosen in lattice.chosen.items():
        chosen &= fam
        if not chosen:
            continue
        for winner, contain in lattice.contain.items():
            meets = contain & chosen
            if meets and winner != loser and beats(winner, loser):
                beating.add((winner, loser))
                flagged |= meets
    witnesses = []
    for menu in lattice.at(flagged):
        members = sorted(menu)
        for loser in sorted(dataset.observations[menu]):
            for winner in members:
                if (winner, loser) in beating:
                    kind, narrative = describe(winner, loser)
                    witnesses.append(ViolationWitness(kind, (menu,), narrative))
    return witnesses


def expansion_over(dataset: ChoiceDataset, kind, sides, clashes) -> list:
    """Violations of an expansion clause: one witness per narrative that
    ``clashes(small, big)`` yields on an observed nested pair, a pattern
    in c(small) clashing with one in c(big).  ``sides`` gives, per
    pattern, the mask of the menus whose choice shows its small side and
    that of the menus whose choice shows its big side; ``clashes`` runs
    only on the nested pairs that one pattern flags on both sides."""
    lattice = dataset.lattice()
    menus = lattice.menus
    bigs_of = {}  # small position -> the big sides of the patterns flagging it
    for smalls, bigs in sides:
        for pos in bits(smalls):
            bigs_of[pos] = bigs_of.get(pos, 0) | bigs
    return sort_witnesses({
        ViolationWitness(kind, (menus[small], menus[big]), narrative)
        for small, bigs in bigs_of.items()
        for big in bits(bigs & lattice.containing(menus[small]) & ~(1 << small))
        for narrative in clashes(menus[small], menus[big])})


def shift_correspondences(dataset: ChoiceDataset, fixed, moved, allowed, label):
    """Correspondences of a common shift of the payload coordinate
    ``moved`` with ``fixed`` held: x, y map to x2, y2 when both move by
    the same shift d with ``allowed(d)``.  Shifts are read on the
    ``integer_payloads`` view, so ``allowed`` sees d times a positive
    denominator and may test only its sign.  Cached per dataset under
    ``label``, which names one transformation."""
    def correspondences():
        ints = integer_payloads(dataset)
        (_, fixed_of), (den, moved_of) = ints[fixed], ints[moved]
        ids = sorted(dataset.universe)
        by_fixed, at = {}, {}
        for alt in ids:
            by_fixed.setdefault(fixed_of[alt], []).append(alt)
            at.setdefault((fixed_of[alt], moved_of[alt]), []).append(alt)
        # str(Fraction) is serialize.format_rational; serialize imports this module
        shown = {}
        out = []
        for x in ids:
            mx = moved_of[x]
            for x2 in by_fixed[fixed_of[x]]:
                shift = moved_of[x2] - mx
                if not allowed(shift):
                    continue
                if shift not in shown:
                    shown[shift] = str(Fraction(shift, den))
                for y in ids:
                    if y == x:
                        continue
                    for y2 in at.get((fixed_of[y], moved_of[y] + shift), ()):
                        out.append((x, y, x2, y2, (
                            f"{x} chosen alongside {y}, but after a common {label} "
                            f"of {shown[shift]} the shifted {y2} is chosen "
                            f"while {x2} is not")))
        return out

    return dataset.cached(("shift", label), correspondences)


def mismatches(dataset: ChoiceDataset, choose) -> list:
    """(menu, predicted, observed) for every observed menu where the
    model's ``choose(menu)`` disagrees with the data."""
    out = []
    for menu in sorted_menus(dataset.observations):
        predicted = choose(menu)
        if predicted != dataset.observations[menu]:
            out.append((menu, predicted, dataset.observations[menu]))
    return out
