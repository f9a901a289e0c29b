"""Built-in separation fixtures and rival-model rationalizability checkers.

The fixtures are the small generic-choice tables used to separate
ordered-reference utility from neighboring non-WARP models (two-stage
shortlisting, personal equilibrium, limited attention).  The checkers
are exhaustive searches over the rival models' parameter spaces on
universes of up to five alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .choices import Alternative, ChoiceDataset, GENERIC, validate_dataset
from .exceptions import (
    AxiomFails,
    MultiValuedChoice,
    NotSubsetClosed,
    UniverseTooLarge,
    UnknownFixture,
)
from .ordu import build_ordu, union_anchor_condition, verify_ordu


def _table(kind, rows):
    alts = sorted({x for menu, _ in rows for x in menu})
    return validate_dataset(
        GENERIC,
        [Alternative(a) for a in alts],
        [(frozenset(menu), frozenset(choice)) for menu, choice in rows],
    )


@dataclass(frozen=True)
class Fixture:
    name: str
    dataset: ChoiceDataset
    ordu: bool                  # admits an ordered-reference representation
    anchor_parts: tuple        # decomposition probing the necessary condition
    anchor: object              # expected verdict for those parts (or None)
    rsm: object                 # expected two-stage verdict (None = untested)
    pe: object                  # expected personal-equilibrium verdict
    cla_note: str = ""          # limited-attention verdict, recorded only


def _fixtures() -> dict:
    compliance = _table(GENERIC, [
        ("abcd", "b"),
        ("abc", "b"), ("abd", "b"), ("acd", "d"), ("bcd", "bc"),
        ("ab", "b"), ("ac", "a"), ("ad", "d"),
        ("bc", "b"), ("bd", "b"), ("cd", "c"),
    ])
    violation = _table(GENERIC, [
        ("abc", "b"), ("ab", "a"), ("bc", "c"), ("ac", "a"),
    ])
    decoy = _table(GENERIC, [
        ("abcd", "a"),
        ("abc", "a"), ("abd", "b"), ("acd", "c"), ("bcd", "b"),
        ("ab", "a"), ("ac", "a"), ("ad", "a"),
        ("bc", "b"), ("bd", "b"), ("cd", "c"),
    ])
    pe_table = _table(GENERIC, [
        ("abcd", "a"),
        ("abc", "ab"), ("abd", "ad"), ("acd", "a"), ("bcd", "c"),
        ("ab", "ab"), ("ac", "a"), ("ad", "ad"),
        ("bc", "bc"), ("bd", "d"), ("cd", "c"),
    ])
    rsm_table = _table(GENERIC, [
        ("abcd", "a"),
        ("abc", "a"), ("abd", "d"), ("acd", "a"), ("bcd", "c"),
        ("ab", "a"), ("ac", "a"), ("ad", "d"),
        ("bc", "b"), ("bd", "d"), ("cd", "c"),
    ])
    # The separation pattern: a wins the small menu {a,b} and the grand
    # menu but loses the intermediate {a,b,d}, which no two-stage
    # shortlist can produce; {a,b,c} -> a keeps the table representable.
    ordu_not_rsm = _table(GENERIC, [
        ("abcd", "a"),
        ("abc", "a"), ("abd", "b"), ("acd", "a"), ("bcd", "b"),
        ("ab", "a"), ("ac", "a"), ("ad", "a"),
        ("bc", "b"), ("bd", "b"), ("cd", "c"),
    ])
    binary_cycle = _table(GENERIC, [
        ("ab", "a"), ("bc", "b"), ("ca", "c"),
    ])
    cla_small = _table(GENERIC, [
        ("abc", "b"), ("ab", "a"), ("bc", "c"), ("ac", "a"),
    ])
    ordu_not_cla = _table(GENERIC, [
        ("abcd", "ab"),
        ("abc", "bc"), ("abd", "ab"), ("acd", "a"), ("bcd", "b"),
        ("ab", "b"), ("ac", "c"), ("ad", "a"),
        ("bc", "b"), ("bd", "b"), ("cd", "c"),
    ])
    fixtures = [
        Fixture("compliance_2_1", compliance, ordu=True,
                anchor_parts=(), anchor=None, rsm=None, pe=None),
        Fixture("violation_2_1", violation, ordu=False,
                anchor_parts=("ab", "ac", "bc"), anchor=False,
                rsm=None, pe=None),
        Fixture("ok2015_decoy", decoy, ordu=False,
                anchor_parts=("abd", "acd"), anchor=False,
                rsm=None, pe=None),
        Fixture("pe_table", pe_table, ordu=False,
                anchor_parts=("abc", "ad"), anchor=False,
                rsm=None, pe=True),
        Fixture("rsm_table", rsm_table, ordu=False,
                anchor_parts=("abd", "bcd", "bc"), anchor=False,
                rsm=True, pe=None),
        Fixture("ordu_not_rsm", ordu_not_rsm, ordu=True,
                anchor_parts=(), anchor=None, rsm=False, pe=None),
        Fixture("binary_cycle", binary_cycle, ordu=True,
                anchor_parts=(), anchor=None, rsm=None, pe=False),
        Fixture("cla_small", cla_small, ordu=False,
                anchor_parts=("ab", "bc"), anchor=False, rsm=None, pe=None,
                cla_note="accommodated by limited attention (recorded verdict, not mechanically checked)"),
        Fixture("ordu_not_cla", ordu_not_cla, ordu=True,
                anchor_parts=(), anchor=None, rsm=None, pe=None,
                cla_note="not accommodated by limited attention (recorded verdict, not mechanically checked)"),
    ]
    return {f.name: f for f in fixtures}


FIXTURES = _fixtures()


def fixture_names():
    return sorted(FIXTURES)


def load_fixture(name: str) -> ChoiceDataset:
    try:
        return FIXTURES[name].dataset
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}; "
                             f"available: {', '.join(fixture_names())}")


# -- two-stage shortlisting -------------------------------------------------


def _pair_states(pairs):
    """Assignments of each unordered pair (x, y) to one of: no edge,
    x beats y, y beats x.  Yields sets of directed (winner, loser) edges."""
    for states in product(range(3), repeat=len(pairs)):
        edges = set()
        for (x, y), state in zip(pairs, states):
            if state == 1:
                edges.add((x, y))
            elif state == 2:
                edges.add((y, x))
        yield frozenset(edges)


def _maximal(menu, strict):
    return frozenset(x for x in menu
                     if not any((y, x) in strict for y in menu))


def rsm_rationalizable(dataset: ChoiceDataset):
    """Search for (first-stage, second-stage) asymmetric relations whose
    eliminate-then-choose procedure reproduces every observation.

    Returns the certificate pair or None.  Choices must be single-valued
    and the universe at most five alternatives.
    """
    members = sorted(dataset.universe)
    if len(members) > 5:
        raise UniverseTooLarge("two-stage search supports at most 5 alternatives")
    for menu, choice in dataset.observations.items():
        if len(choice) != 1:
            raise MultiValuedChoice(
                f"menu {sorted(menu)} has a multi-valued choice")
    menus = [(menu, next(iter(choice)))
             for menu, choice in sorted(dataset.observations.items(),
                                        key=lambda kv: sorted(kv[0]))]
    for first in _pair_states(list(combinations(members, 2))):
        shortlists = []
        ok = True
        for menu, chosen in menus:
            short = _maximal(menu, first)
            if chosen not in short:
                ok = False
                break
            shortlists.append((short, chosen))
        if not ok:
            continue
        # Pair states forced by two-element shortlists: the survivor must
        # strictly beat the other member.
        forced = {}
        consistent = True
        for short, chosen in shortlists:
            if len(short) == 2:
                other = next(x for x in short if x != chosen)
                key = tuple(sorted((chosen, other)))
                want = (chosen, other)
                if forced.setdefault(key, want) != want:
                    consistent = False
                    break
        if not consistent:
            continue
        free = [p for p in combinations(members, 2) if p not in forced]
        base = frozenset(forced.values())
        for extra in _pair_states(free):
            second = base | extra
            if all(_maximal(short, second) == frozenset((chosen,))
                   for short, chosen in shortlists):
                return first, second
    return None


# -- personal equilibrium ---------------------------------------------------


def _strict_acyclic(members, strict) -> bool:
    remaining = set(members)
    while remaining:
        top = [x for x in remaining
               if not any((y, x) in strict for y in remaining if y != x)]
        if not top:
            return False
        remaining.difference_update(top)
    return True


def pe_rationalizable(dataset: ChoiceDataset):
    """Search for a complete (possibly intransitive) preference whose
    maximal sets reproduce the data.

    The strict part must be acyclic over the universe so the induced
    correspondence is nonempty on every menu, observed or not; the
    certificate is the set of strict (winner, loser) pairs, with
    unlisted pairs indifferent.
    """
    members = sorted(dataset.universe)
    if len(members) > 5:
        raise UniverseTooLarge("equilibrium search supports at most 5 alternatives")
    observations = sorted(dataset.observations.items(),
                          key=lambda kv: sorted(kv[0]))
    for strict in _pair_states(list(combinations(members, 2))):
        if not _strict_acyclic(members, strict):
            continue
        if all(_maximal(menu, strict) == choice for menu, choice in observations):
            return strict
    return None


# -- the separation matrix --------------------------------------------------


def ordu_admissible(dataset: ChoiceDataset) -> bool:
    try:
        params = build_ordu(dataset)
    except (AxiomFails, NotSubsetClosed):
        return False
    return not verify_ordu(params, dataset)


def separation_suite() -> dict:
    """Classify every fixture and compare with the recorded verdicts.

    Returns {fixture: {"ordu": ..., "union_anchor": ..., "rsm": ..., "pe": ...,
    "expected": {...}, "matches": bool}}.
    """
    report = {}
    for name in fixture_names():
        fixture = FIXTURES[name]
        ds = fixture.dataset
        entry = {"ordu": ordu_admissible(ds)}
        entry["union_anchor"] = (
            union_anchor_condition(ds, [frozenset(p) for p in fixture.anchor_parts])
            if fixture.anchor_parts else None)
        entry["rsm"] = None
        entry["pe"] = None
        if fixture.rsm is not None:
            entry["rsm"] = rsm_rationalizable(ds) is not None
        if fixture.pe is not None:
            entry["pe"] = pe_rationalizable(ds) is not None
        if fixture.cla_note:
            entry["cla"] = fixture.cla_note
        expected = {"ordu": fixture.ordu, "union_anchor": fixture.anchor,
                    "rsm": fixture.rsm, "pe": fixture.pe}
        entry["expected"] = expected
        entry["matches"] = all(entry[key] == expected[key] for key in
                               ("ordu", "union_anchor", "rsm", "pe"))
        report[name] = entry
    return report
