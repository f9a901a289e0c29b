import pytest

from refdep.exceptions import MultiValuedChoice, UniverseTooLarge, UnknownFixture
from refdep.rivals import (
    fixture_names,
    load_fixture,
    ordu_admissible,
    pe_rationalizable,
    rsm_rationalizable,
    separation_suite,
)

from helpers import (
    exhaustive_correspondences,
    exhaustive_single_valued_datasets,
    generic_dataset,
    ordu_bruteforce,
    pe_bruteforce,
    pe_forward,
    perturbed_ordu_data,
    rsm_bruteforce,
    rsm_forward,
    sparse_ordu_data,
    subset_closed_by_maximal_menus,
)


def test_fixture_contents():
    decoy = load_fixture("ok2015_decoy")
    assert len(decoy.observations) == 11
    assert decoy.observations[frozenset("abd")] == frozenset("b")
    assert decoy.observations[frozenset("acd")] == frozenset("c")
    cycle = load_fixture("binary_cycle")
    assert len(cycle.observations) == 3
    compliance = load_fixture("compliance_2_1")
    assert compliance.observations[frozenset("abcd")] == frozenset("b")


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        load_fixture("nope")


def test_rsm_certificate_replays_the_fixture():
    ds = load_fixture("rsm_table")
    certificate = rsm_rationalizable(ds)
    assert certificate is not None
    first, second = certificate
    table = rsm_forward(sorted(ds.universe), first, second)
    assert table is not None
    for menu, choice in ds.observations.items():
        assert table[menu] == choice


def test_rsm_rejects_the_intermediate_elimination_pattern():
    assert rsm_rationalizable(load_fixture("ordu_not_rsm")) is None


def test_rsm_single_menu_is_trivially_rationalizable():
    ds = generic_dataset([("ab", "a")])
    assert rsm_rationalizable(ds) is not None


def test_rsm_guards():
    big = generic_dataset([(tuple("abcdef"), ("a",))])
    with pytest.raises(UniverseTooLarge):
        rsm_rationalizable(big)
    multi = generic_dataset([("ab", "ab")])
    with pytest.raises(MultiValuedChoice):
        rsm_rationalizable(multi)


def test_pe_certificate_matches_the_listed_relation():
    ds = load_fixture("pe_table")
    strict = pe_rationalizable(ds)
    assert strict is not None
    table = pe_forward(sorted(ds.universe), strict)
    for menu, choice in ds.observations.items():
        assert table[menu] == choice
    assert strict == {("a", "c"), ("d", "b"), ("c", "d")}


def test_pe_rejects_the_binary_cycle():
    assert pe_rationalizable(load_fixture("binary_cycle")) is None


def test_pe_accepts_warp_satisfying_data():
    ds = generic_dataset([("ab", "a"), ("bc", "b"), ("ac", "a"), ("abc", "a")])
    assert pe_rationalizable(ds) is not None


def test_rsm_matches_independent_bruteforce_on_three_alternatives():
    for ds in exhaustive_single_valued_datasets():
        assert (rsm_rationalizable(ds) is not None) == rsm_bruteforce(ds)


def test_pe_matches_independent_bruteforce_on_three_alternatives():
    count = 0
    for ds in exhaustive_correspondences():
        assert (pe_rationalizable(ds) is not None) == pe_bruteforce(ds)
        count += 1
    assert count == 189


def test_separation_suite_reproduces_the_classification_matrix():
    report = separation_suite()
    assert set(report) == set(fixture_names())
    for name, entry in report.items():
        assert entry["matches"], f"{name}: {entry}"
    assert report["ok2015_decoy"]["union_anchor"] is False
    assert report["pe_table"]["union_anchor"] is False
    assert report["rsm_table"]["union_anchor"] is False
    assert report["rsm_table"]["rsm"] is True
    assert report["pe_table"]["pe"] is True
    assert report["binary_cycle"]["ordu"] is True
    assert report["binary_cycle"]["pe"] is False
    assert report["ordu_not_rsm"]["ordu"] is True
    assert report["ordu_not_rsm"]["rsm"] is False


def test_cla_fixtures_are_classified_on_the_ordu_side_only():
    report = separation_suite()
    assert report["cla_small"]["ordu"] is False
    assert "attention" in report["cla_small"]["cla"]
    assert report["ordu_not_cla"]["ordu"] is True
    assert "attention" in report["ordu_not_cla"]["cla"]


def test_ordu_admissible_is_the_search_over_orders():
    """InfeasibleFit, like AxiomFails, proves that no order represents
    the data (perturbed seed 19 is such a case), on subset-closed data
    and on sampled menu families that are mostly not."""
    verdicts = {}
    for seed in range(60):
        ds = perturbed_ordu_data(seed)
        verdicts[seed] = ordu_admissible(ds)
        assert verdicts[seed] == (ordu_bruteforce(ds) is not None), seed
    assert verdicts[19] is False and True in verdicts.values()
    sparse = [sparse_ordu_data(seed) for seed in range(60)]
    for seed, ds in enumerate(sparse):
        assert ordu_admissible(ds) == (ordu_bruteforce(ds) is not None), seed
    assert not all(map(subset_closed_by_maximal_menus, sparse))
