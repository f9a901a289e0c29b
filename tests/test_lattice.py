"""The menu lattice against the all-pairs scans it replaced.

``ChoiceDataset.lattice`` answers every "which observed menus lie inside
which" question with bitmasks; these tests replay the same questions by
comparing menus pair by pair (the scans in ``helpers``) on seeded data
of all four kinds, on thinned datasets and on random sub-families.
"""

import random
import tracemalloc

import pytest

from refdep.choices import (
    ChoiceDataset,
    _warp_blocking,
    invariance_over,
    mismatches,
    shift_correspondences,
    sorted_menus,
    warp_over,
)
from refdep.engine import IDENTITY_PSI, _admits
from refdep.exceptions import UnobservedMenu
from refdep.ordu import battery, simulate_ordu
from refdep.risk import LEAST_RISKY_PSI, _mixture_correspondences
from refdep.rivals import load_fixture
from refdep.serialize import dataset_to_dict
from refdep.social import MOST_BALANCED_PSI
from refdep.timepref import EARLIEST_PSI

from helpers import (
    all_menus,
    areu_data,
    earliest_payments_by_maximizers,
    fspu_data,
    fractional_fspu_data,
    fractional_pbdu_data,
    integer_areu_data,
    invariance_by_scan,
    least_risky_by_loop,
    member_masks,
    most_balanced_by_maximizers,
    ordu_data,
    pbdu_data,
    perturbed,
    psi_heredity_by_scan,
    random_ordu_params,
    restrict,
    warp_by_scan,
)


def _no_correspondences(ds):
    return []


DOMAINS = {
    "generic": (ordu_data, IDENTITY_PSI, _no_correspondences),
    "lottery": (areu_data, LEAST_RISKY_PSI, _mixture_correspondences),
    "dated_payment": (pbdu_data, EARLIEST_PSI, lambda ds: shift_correspondences(
        ds, "amount", "time", lambda d: d > 0, "delay")),
    "income_split": (fspu_data, MOST_BALANCED_PSI, lambda ds: shift_correspondences(
        ds, "other", "own", lambda d: d != 0, "own-payment shift")),
}


def _datasets(make, rng, count=4):
    """Perturbed model data, each followed by a thinned copy."""
    for _ in range(count):
        full = perturbed(rng, make(rng))
        yield full
        yield restrict(full, [m for m in full.menus() if rng.random() < 0.6])


def _random_family(rng, menus):
    family = [m for m in menus if rng.random() < 0.5]
    rng.shuffle(family)
    return family


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_lattice_agrees_with_the_all_pairs_scans(domain):
    make, psi, correspondences = DOMAINS[domain]
    rng = random.Random(71)
    for ds in _datasets(make, rng):
        menus = ds.menus()
        assert isinstance(menus, tuple) and list(menus) == sorted_menus(ds.observations)
        universe, lattice = sorted(ds.universe), ds.lattice()
        pools = [*menus, *(frozenset(rng.sample(universe, rng.randint(1, len(universe))))
                           for _ in range(5))]
        for pool in pools:
            assert lattice.at(lattice.within(pool)) == [m for m in menus if m <= pool]
        assert warp_over(ds, menus) == warp_by_scan(ds, menus)
        shifts = correspondences(ds)
        for _ in range(5):
            family = _random_family(rng, menus)
            assert warp_over(ds, family) == warp_by_scan(ds, family)
            drawn = [(*rng.sample(universe, 2), *rng.sample(universe, 2), "drawn")
                     for _ in range(20)]
            for corr in (drawn, shifts):
                assert invariance_over(ds, family, "Invariance", corr) == \
                    invariance_by_scan(ds, family, "Invariance", corr)
        assert psi_heredity_by_scan(ds, psi) is None


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_member_masks_are_those_of_the_menus_and_their_choices(domain):
    """``contain`` and ``chosen`` hold, in key order, the masks that one walk
    over the menus and one over their choices give; an alternative that no
    menu holds or no menu chooses has no key.  Each draw is also cut down
    to its three smallest menus, which leaves alternatives out."""
    make = DOMAINS[domain][0]
    rng = random.Random(71)
    unheld = unchosen = 0
    for drawn in _datasets(make, rng):
        for ds in (drawn, restrict(drawn, drawn.menus()[:3])):
            lattice = ds.lattice()
            choices = [ds.observations[m] for m in lattice.menus]
            assert list(lattice.contain.items()) == list(member_masks(lattice.menus).items())
            assert list(lattice.chosen.items()) == list(member_masks(choices).items())
            assert lattice.contain.keys() == frozenset().union(*lattice.menus)
            assert lattice.chosen.keys() == frozenset().union(*choices)
            unheld += len(ds.universe) - len(lattice.contain)
            unchosen += len(ds.universe) - len(lattice.chosen)
    assert unheld > 0 and unchosen > unheld, (unheld, unchosen)


def _blocking_by_scan(ds):
    """Per alternative x, the mask of the observed menus that contain every
    menu of some ``warp_by_scan`` witness whose menus all hold x."""
    menus, blocked = ds.menus(), {}
    for witness in warp_by_scan(ds, menus):
        pools = sum(1 << pos for pos, menu in enumerate(menus)
                    if all(part <= menu for part in witness.menus))
        for x in frozenset.intersection(*witness.menus):
            blocked[x] = blocked.get(x, 0) | pools
    return blocked


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_one_warp_scan_gives_the_witnesses_and_the_blocking_rule(domain):
    """The whole family, given as the lattice's own tuple or as a list,
    masks every menu and lists the all-pairs witnesses; the blocking rule
    gives the masks those witnesses imply."""
    rng = random.Random(97)
    blocking = 0
    for ds in _datasets(DOMAINS[domain][0], rng):
        menus, lattice = ds.menus(), ds.lattice()
        assert menus is lattice.menus
        assert lattice.mask(menus) == lattice.mask(list(menus)) == lattice.full
        assert warp_over(ds, menus) == warp_over(ds, list(menus)) == warp_by_scan(ds, menus)
        assert _warp_blocking(ds) == _blocking_by_scan(ds)
        blocking += bool(_warp_blocking(ds))
    assert blocking >= 2, blocking


def test_warp_over_finds_violations_on_the_perturbed_data():
    # the agreement above must not be vacuous
    rng = random.Random(71)
    assert any(warp_by_scan(ds, ds.menus()) for ds in _datasets(ordu_data, rng, 2))


def test_a_family_with_an_unobserved_menu_raises():
    ds = load_fixture("compliance_2_1")
    family = [*ds.menus()[:3], frozenset("az")]
    with pytest.raises(UnobservedMenu, match=r"\['a', 'z'\]"):
        warp_over(ds, family)
    with pytest.raises(UnobservedMenu, match=r"\['a', 'z'\]"):
        invariance_over(ds, family, "Invariance", [])


def _identity(dataset, menu):
    return frozenset(menu)


# per domain: the old per-menu Psi evaluator and a draw with tied times,
# Gini levels or unordered lotteries
PSI_ORACLES = {
    "generic": (_identity, ordu_data),
    "lottery": (least_risky_by_loop, lambda rng: integer_areu_data(rng, 3)),
    "dated_payment": (earliest_payments_by_maximizers, fractional_pbdu_data),
    "income_split": (most_balanced_by_maximizers, fractional_fspu_data),
}


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_psi_relations_match_the_per_menu_evaluators(domain):
    """The admits masks and ``PsiMap.of`` on every observed menu, and
    ``PsiMap.of`` on random unobserved pools, equal the per-menu
    evaluator on clean, perturbed and thinned data, ties included."""
    make, psi, _ = DOMAINS[domain]
    oracle, tied = PSI_ORACLES[domain]
    rng = random.Random(73)
    ties = pools = 0
    for draw in (make, tied):
        for _ in range(4):
            clean = draw(rng)
            full = perturbed(rng, clean)
            thinned = restrict(full, [m for m in full.menus() if rng.random() < 0.6])
            for ds in (clean, full, thinned):
                table = {m: oracle(ds, m) for m in ds.menus()}
                assert {m: psi.of(ds, m) for m in ds.menus()} == table
                assert {x: mask for x, mask in _admits(ds, psi).items() if mask} == \
                    member_masks(table.values())
                ties += any(1 < len(admitted) < len(m) for m, admitted in table.items())
                universe = sorted(ds.universe)
                for _ in range(20):
                    pool = frozenset(rng.sample(universe, rng.randint(1, len(universe))))
                    if pool not in ds.observations:
                        pools += 1
                        assert psi.of(ds, pool) == oracle(ds, pool)
    assert pools > 50 and (ties or domain == "generic"), (pools, ties)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_mismatches_and_dataset_to_dict_build_no_lattice(domain):
    """Both read the observed menus in canonical order without the masks."""
    make = DOMAINS[domain][0]
    for drawn in (make(random.Random(79)), load_fixture("compliance_2_1")):
        ds = ChoiceDataset(drawn.kind, drawn.alternatives, drawn.observations, floor=drawn.floor)
        menus = sorted_menus(ds.observations)
        assert [sorted(m) for m, *_ in mismatches(ds, lambda menu: menu)] == \
            [sorted(m) for m in menus if ds.observations[m] != m]
        assert [o["menu"] for o in dataset_to_dict(ds)["observations"]] == \
            [sorted(m) for m in menus]
        assert "lattice" not in ds._cache


def _clean_ordu_peak(n):
    """(observed menus, tracemalloc peak bytes of the lattice build and the
    ORDU battery) on clean ORDU data over n alternatives, size-2-3 menus."""
    ids = [f"x{i:02d}" for i in range(n)]
    ds = simulate_ordu(random_ordu_params(random.Random(5), ids), all_menus(ids, 2, 3))
    tracemalloc.start()
    try:
        lattice = ds.lattice()
        assert all(not witnesses for _, _, witnesses in battery(ds))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(vars(lattice)) == ["chosen", "contain", "full", "index", "menus"]
    return len(lattice.menus), peak


def test_lattice_memory_grows_far_less_than_the_square_of_the_menus():
    # The menus grow 8x and their square 64x.  One m-bit sub-menu mask
    # kept per menu made the peak grow about 40x; the per-alternative
    # masks alone grow it about 14x (their n * m bits grow 16x).  The
    # first run warms what any first run allocates once.
    _clean_ordu_peak(10)
    small_menus, small = _clean_ordu_peak(20)
    large_menus, large = _clean_ordu_peak(40)
    assert (small_menus, large_menus) == (1_330, 10_660)
    assert large / small < 24, (small, large)
