import random
from collections import Counter

import pytest

from refdep import risk, social, timepref
from refdep.choices import (
    WARP,
    ChoiceDataset,
    FiniteProperty,
    ViolationWitness,
    dominance_over,
    expansion_over,
)
from refdep.engine import (
    IDENTITY_PSI,
    PsiMap,
    candidate_references,
    check_reference_dependence,
    witness_index,
    _blocked,
    _witness_masks,
)
from refdep.exceptions import EmptyPsi, UnobservedMenu
from refdep.ordu import build_ordu
from refdep.risk import LEAST_RISKY_PSI, RISK_PROPERTY
from refdep.rivals import load_fixture
from refdep.social import MOST_BALANCED_PSI, SOCIAL_PROPERTY
from refdep.timepref import (
    EARLIEST_PSI,
    TIME_PROPERTY,
    check_time_reference_dependence,
    pairwise_anchored_equivalence,
)

from helpers import (
    all_menus,
    anchored_subset_form_by_families,
    areu_data,
    blocked_by_witnesses,
    candidate_witnesses_by_families,
    dominance_by_menus,
    expansion_by_nested_pairs,
    exhaustive_single_valued_datasets,
    fspu_data,
    generic_dataset,
    integer_areu_data,
    large_ordu_data,
    ordu_bruteforce,
    ordu_data,
    pbdu_data,
    perturbed,
    reference_dependence_by_families,
    reference_dependence_by_menus,
    restrict,
    time_reference_dependence_by_pairs,
    witness_masks_by_sets,
)


def test_candidates_on_the_compliance_table():
    ds = load_fixture("compliance_2_1")
    cmap = candidate_references(ds, WARP, IDENTITY_PSI)
    assert "a" in cmap[frozenset("abcd")]
    assert "d" in cmap[frozenset("bcd")]


def test_candidates_empty_on_the_violation_table():
    ds = load_fixture("violation_2_1")
    cmap = candidate_references(ds, WARP, IDENTITY_PSI)
    assert cmap[frozenset("abc")] == frozenset()


def test_singleton_menus_are_their_own_candidates():
    ds = generic_dataset([("a", "a"), ("ab", "b")])
    cmap = candidate_references(ds, WARP, IDENTITY_PSI)
    assert cmap[frozenset("a")] == frozenset("a")


def test_candidate_map_is_hereditary():
    ds = load_fixture("compliance_2_1")
    cmap, lattice = candidate_references(ds, WARP, IDENTITY_PSI), ds.lattice()
    for big, candidates in cmap.items():
        for small in lattice.at(lattice.within(big)):
            assert candidates & small <= cmap[small]


def test_reference_dependence_passes_on_compliance():
    ds = load_fixture("compliance_2_1")
    assert check_reference_dependence(ds, WARP, IDENTITY_PSI) == []


def test_reference_dependence_failure_satisfies_the_union_condition():
    ds = load_fixture("violation_2_1")
    failures = check_reference_dependence(ds, WARP, IDENTITY_PSI)
    assert [sorted(f.menu) for f in failures] == [["a", "b", "c"]]
    failure = failures[0]
    blocking = [set(menu) for _, witnesses in failure.per_candidate
                for w in witnesses for menu in w.menus if menu != failure.menu]
    assert any(b1 | b2 == set(failure.menu)
               for b1 in blocking for b2 in blocking)


def test_doubletons_and_singletons_always_pass():
    ds = generic_dataset([("ab", "a"), ("bc", "c"), ("ac", "c"), ("a", "a")])
    assert check_reference_dependence(ds, WARP, IDENTITY_PSI) == []


def test_a_cyclic_psi_relation_raises_empty_psi_naming_the_cycle():
    # c beats a beats b beats c; d, beaten by a, lies outside the cycle
    cyclic = PsiMap("cyclic", lambda dataset: {"a": ["c"], "b": ["a"], "c": ["b"], "d": ["a"]})
    ds = generic_dataset([("abcd", "a"), ("ab", "a"), ("cd", "c")])
    message = "cyclic: a beats b beats c beats a, so no member of ['a', 'b', 'c'] is admissible"
    for use in (lambda: cyclic.of(ds, frozenset("cd")),
                lambda: check_reference_dependence(ds, WARP, cyclic)):
        with pytest.raises(EmptyPsi) as exc:
            use()
        assert str(exc.value) == message


def _acyclic_by_peeling(beaten, ids):
    """Peel off the members no remaining member beats until none is left
    (acyclic) or every remaining member is beaten (a cycle)."""
    remaining = set(ids)
    while remaining:
        free = {x for x in remaining if not set(beaten.get(x, ())) & remaining}
        if not free:
            return False
        remaining -= free
    return True


def test_the_least_risky_relation_has_no_cycle():
    rng = random.Random(83)
    related = 0
    for draw in (areu_data, lambda rng: integer_areu_data(rng, 3),
                 lambda rng: integer_areu_data(rng, 4)):
        for _ in range(40):
            ds = draw(rng)
            beaten = LEAST_RISKY_PSI.beats(ds)
            assert _acyclic_by_peeling(beaten, ds.universe)
            assert LEAST_RISKY_PSI.of(ds, ds.universe)  # the relation's cycle check passes
            related += bool(beaten)
    assert related > 60, related


def test_universal_mode_is_stricter():
    # b and c tie as most-balanced-style candidates; make one of them fail
    ds = generic_dataset([("abc", "a"), ("ab", "b"), ("ac", "a"), ("bc", "b")])
    existential = check_reference_dependence(ds, WARP, IDENTITY_PSI)
    universal = check_reference_dependence(ds, WARP, IDENTITY_PSI, universal=True)
    assert existential == []
    assert universal != []


def test_representability_iff_at_three_alternatives():
    for ds in exhaustive_single_valued_datasets():
        rd = check_reference_dependence(ds, WARP, IDENTITY_PSI) == []
        try:
            build_ordu(ds)
            built = True
        except Exception:
            built = False
        assert rd == built == (ordu_bruteforce(ds) is not None)


def test_representability_iff_sampled_at_four_alternatives():
    rng = random.Random(19)
    menus = all_menus("abcd", 2, 4)
    for _ in range(40):
        rows = []
        for menu in menus:
            pool = sorted(menu)
            mask = rng.randint(1, 2 ** len(pool) - 1)
            rows.append((menu, {m for i, m in enumerate(pool) if mask >> i & 1}))
        ds = generic_dataset(rows)
        rd = check_reference_dependence(ds, WARP, IDENTITY_PSI) == []
        try:
            build_ordu(ds)
            built = True
        except Exception:
            built = False
        assert rd == built == (ordu_bruteforce(ds) is not None)


def test_rd_matches_build_on_random_five_alternative_data():
    rng = random.Random(37)
    menus = all_menus("abcde", 2, 5)
    for _ in range(20):
        rows = []
        for menu in menus:
            pool = sorted(menu)
            mask = rng.randint(1, 2 ** len(pool) - 1)
            rows.append((menu, {m for i, m in enumerate(pool) if mask >> i & 1}))
        ds = generic_dataset(rows)
        rd = check_reference_dependence(ds, WARP, IDENTITY_PSI) == []
        try:
            build_ordu(ds)
            built = True
        except Exception:
            built = False
        assert rd == built


ENGINE_DOMAINS = {
    "generic": (ordu_data, WARP, IDENTITY_PSI),
    "lottery": (areu_data, RISK_PROPERTY, LEAST_RISKY_PSI),
    "dated_payment": (pbdu_data, TIME_PROPERTY, EARLIEST_PSI),
    "income_split": (fspu_data, SOCIAL_PROPERTY, MOST_BALANCED_PSI),
}


def _candidates_by_families(ds, prop, psi, pool):
    return frozenset(x for x, witnesses in
                     candidate_witnesses_by_families(ds, prop, psi, pool) if not witnesses)


@pytest.mark.parametrize("domain", sorted(ENGINE_DOMAINS))
def test_engine_agrees_with_evaluating_every_sub_family(domain):
    make, prop, psi = ENGINE_DOMAINS[domain]
    rng = random.Random(43)
    applicable = 0
    for _ in range(5):
        full = perturbed(rng, make(rng))
        thinned = restrict(full, [m for m in full.menus() if rng.random() < 0.7])
        for ds in (full, thinned):
            for universal in (False, True):
                failures = check_reference_dependence(ds, prop, psi, universal=universal)
                assert [(f.menu, f.per_candidate) for f in failures] == \
                    reference_dependence_by_families(ds, prop, psi, universal)
            assert candidate_references(ds, prop, psi) == {
                m: _candidates_by_families(ds, prop, psi, m) for m in ds.menus()}
            if domain != "dated_payment":
                continue
            pairwise = tuple(time_reference_dependence_by_pairs(ds))
            assert tuple(check_time_reference_dependence(ds)) == pairwise
            report = pairwise_anchored_equivalence(ds)
            if report.status != "not_applicable":
                applicable += 1
                assert report.pairwise == pairwise
                assert report.subset_form == tuple(anchored_subset_form_by_families(ds))
    assert applicable or domain != "dated_payment"


MASK_DOMAINS = {**ENGINE_DOMAINS,
                "generic, large": (large_ordu_data, WARP, IDENTITY_PSI)}


def _mask_datasets(domain):
    """Per draw: the model's data, a perturbed copy and its doubleton menus."""
    make = MASK_DOMAINS[domain][0]
    rng = random.Random(61)
    for _ in range(3 if domain == "generic, large" else 6):
        clean = make(rng)
        doubletons = restrict(clean, [m for m in clean.menus() if len(m) == 2])
        yield from (clean, perturbed(rng, clean), doubletons)


@pytest.mark.parametrize("domain", sorted(MASK_DOMAINS))
def test_witness_masks_match_the_frozenset_masks(domain):
    """The per-position masks equal the union and intersection masks, and
    the engine answers the same from either, narratives included, on
    clean, perturbed and doubleton-only data."""
    _, prop, psi = MASK_DOMAINS[domain]
    sizes = []
    for ds in _mask_datasets(domain):
        sizes.append(len(witness_index(ds, prop)))
        assert _witness_masks(ds, prop) == witness_masks_by_sets(ds, prop)
        by_sets = ChoiceDataset(ds.kind, ds.alternatives, ds.observations, floor=ds.floor)
        by_sets.cached(("witness masks", prop), lambda: witness_masks_by_sets(by_sets, prop))
        for universal in (False, True):
            failures = check_reference_dependence(ds, prop, psi, universal=universal)
            want = check_reference_dependence(by_sets, prop, psi, universal=universal)
            assert failures == want
            assert [w.narrative for f in failures for _, ws in f.per_candidate for w in ws] \
                == [w.narrative for f in want for _, ws in f.per_candidate for w in ws]
    assert 0 in sizes and max(sizes) > (500 if domain == "generic, large" else 0), sizes


# the checks of each domain that read ``dominance_over`` or ``expansion_over``
MASK_CHECKS = {"generic": (), "generic, large": (),
               "lottery": (risk.check_fosd_dominance, risk.check_avoidable_risk),
               "dated_payment": (timepref.check_outcome_monotonicity_impatience,),
               "income_split": (social.check_social_monotonicity, social.check_fairness)}


@pytest.mark.parametrize("domain", sorted(MASK_DOMAINS))
def test_mask_decisions_match_the_per_menu_loops(domain, monkeypatch):
    """Reference-dependence failures, existential and universal, and the
    dominance and expansion witnesses equal those of the per-menu loops,
    in order and with narratives, on the data above."""
    _, prop, psi = MASK_DOMAINS[domain]
    reported = Counter()

    def against(fast, loop):
        def both(dataset, *args):
            got = fast(dataset, *args)
            assert got == loop(dataset, *args)
            reported[fast.__name__] += len(got)
            return got
        return both

    for module in (risk, timepref, social):
        monkeypatch.setattr(module, "dominance_over", against(dominance_over, dominance_by_menus))
    for module in (risk, social):
        monkeypatch.setattr(module, "expansion_over", against(
            expansion_over, lambda dataset, kind, _sides, clashes:
            expansion_by_nested_pairs(dataset, kind, clashes)))
    for ds in _mask_datasets(domain):
        for universal in (False, True):
            failures = check_reference_dependence(ds, prop, psi, universal=universal)
            assert failures == reference_dependence_by_menus(ds, prop, psi, universal)
            reported["failures"] += len(failures)
        for check in MASK_CHECKS[domain]:
            check(ds)
    want = {"failures"} | ({"dominance_over"} if MASK_CHECKS[domain] else set()) \
        | ({"expansion_over"} if len(MASK_CHECKS[domain]) == 2 else set())
    assert {name for name, count in reported.items() if count} == want, reported


@pytest.mark.parametrize("domain", sorted(MASK_DOMAINS))
def test_blocking_rules_match_the_per_witness_loop(domain):
    """WARP's blocking rule, and the masks derived from the witnesses of
    the conjoined properties, equal those of the per-witness loop; the
    engine reports the same failures from either, existential and
    universal, on clean, perturbed and doubleton-only data."""
    _, prop, psi = MASK_DOMAINS[domain]
    sizes, failed = [], 0
    for ds in _mask_datasets(domain):
        sizes.append(len(witness_index(ds, WARP)))
        oracle = ChoiceDataset(ds.kind, ds.alternatives, ds.observations, floor=ds.floor)
        for p, q in {WARP: IDENTITY_PSI, prop: psi}.items():
            assert _blocked(ds, p) == blocked_by_witnesses(ds, p)
            oracle.cached(("blocked", p), lambda p=p: blocked_by_witnesses(oracle, p))
            for universal in (False, True):
                failures = check_reference_dependence(ds, p, q, universal=universal)
                assert failures == check_reference_dependence(oracle, p, q, universal=universal)
                failed += len(failures)
    assert failed and max(sizes) > (500 if domain == "generic, large" else 0), sizes


def test_a_witness_naming_an_unobserved_menu_raises_unobserved_menu():
    ds = generic_dataset([("ab", "a"), ("abc", "b")])
    ghost = FiniteProperty("ghost", lambda dataset, family: [
        ViolationWitness("ghost", (frozenset("abc"), frozenset("bc")), "{b,c} is no menu")])
    assert ghost.blocking is None
    with pytest.raises(UnobservedMenu, match=r"\['b', 'c'\] was not observed"):
        _blocked(ds, ghost)
    with pytest.raises(UnobservedMenu, match=r"\['b', 'c'\] was not observed"):
        check_reference_dependence(ds, ghost, IDENTITY_PSI)
