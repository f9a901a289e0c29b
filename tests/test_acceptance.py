"""Acceptance criteria, one test per criterion.

Every check is exact (rational arithmetic end to end); each test prints
its own pass line with the elapsed time and asserts the stated budget.
"""

import random
import time
from fractions import Fraction as F

import pytest

from refdep.choices import Alternative, WARP, warp_over
from refdep.engine import IDENTITY_PSI, ReferenceOrder, check_reference_dependence
from refdep.exceptions import AxiomFails, InfeasibleFit
from refdep.ordu import build_ordu, simulate_ordu
from refdep.risk import (
    AreuParams,
    Fanning,
    fanning_classify,
    fit_areu,
    independence_over,
    simulate_areu,
)
from refdep.rivals import separation_suite
from refdep.social import fit_fspu, gini, linkage_report_social, simulate_fspu
from refdep.timepref import (
    fit_pbdu,
    pairwise_anchored_equivalence,
    linkage_report_time,
    simulate_pbdu,
    single_switching_check,
    stationarity_over,
)

import helpers
from helpers import (
    all_menus,
    allais_dataset,
    areu_instance,
    exhaustive_single_valued_datasets,
    fspu_instance,
    ordu_bruteforce,
    pay,
    payment_dataset,
    pbdu_instance,
    random_ordu_params,
    reverse_allais_dataset,
    split,
    split_dataset,
)


class budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s / "
              f"budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its budget"
        return False


def test_criterion_01_section_2_1_tables():
    with budget("1 generic tables", 1):
        from refdep.rivals import load_fixture
        compliance = load_fixture("compliance_2_1")
        assert check_reference_dependence(compliance, WARP, IDENTITY_PSI) == []
        violation = load_fixture("violation_2_1")
        failures = check_reference_dependence(violation, WARP, IDENTITY_PSI)
        assert [sorted(f.menu) for f in failures] == [["a", "b", "c"]]
        blocking = [frozenset(menu)
                    for _, witnesses in failures[0].per_candidate
                    for w in witnesses for menu in w.menus
                    if menu != failures[0].menu]
        assert any(b1 | b2 == failures[0].menu
                   for b1 in blocking for b2 in blocking)


def test_criterion_02_representation_round_trip():
    with budget("2 ordered-reference round trip", 30):
        rng = random.Random(0)
        menus = all_menus("abcde", 1, 5)
        assert len(menus) == 31
        for _ in range(200):
            params = random_ordu_params(rng)
            ds = simulate_ordu(params, menus)
            rebuilt = build_ordu(ds)
            again = simulate_ordu(rebuilt, menus)
            assert again.same_observations(ds)


def test_criterion_03_representability_iff_at_three():
    with budget("3 representability iff (|Y|=3)", 60):
        checked = 0
        for ds in exhaustive_single_valued_datasets():
            rd = check_reference_dependence(ds, WARP, IDENTITY_PSI) == []
            try:
                build_ordu(ds)
                built = True
            except AxiomFails:
                built = False
            brute = ordu_bruteforce(ds) is not None
            assert rd == built == brute
            checked += 1
        assert checked == 24


def test_criterion_04_allais_fit_and_reverse():
    with budget("4 common-ratio fit", 5):
        ds = allais_dataset()
        params = fit_areu(ds)
        u_safe = params.utility(params.order.argmax(frozenset(("p1", "p2"))))
        u_risk = params.utility(params.order.argmax(frozenset(("q1", "q2"))))
        assert u_safe[1] > F(4, 5) > u_risk[1]
        with pytest.raises(InfeasibleFit):
            fit_areu(reverse_allais_dataset())


def test_criterion_05_triple_menu_warp_violation():
    with budget("5 triple-menu reversal", 1):
        prizes = (F(0), F(3000), F(4000))
        lots = {
            "p1": (F(0), F(1), F(0)),
            "q1": (F(1, 10), F(7, 10), F(2, 10)),
            "q2": (F(3, 10), F(3, 10), F(4, 10)),
        }
        params = AreuParams.build(
            prizes, lots, ReferenceOrder(("p1", "q1", "q2")),
            {"p1": (F(0), F(3, 5), F(1)),
             "q1": (F(0), F(2, 5), F(1)),
             "q2": (F(0), F(2, 5), F(1))})
        triple = frozenset(("p1", "q1", "q2"))
        pair = frozenset(("q1", "q2"))
        ds = simulate_areu(params, [triple, pair])
        assert ds.observations[triple] == frozenset(("q1",))
        assert ds.observations[pair] == frozenset(("q2",))
        assert warp_over(ds, ds.menus()) != []


def test_criterion_06_linkage_risk():
    with budget("6 risk linkage (100 sims)", 60):
        rng = random.Random(1)
        for seed in range(100):
            distinct = seed % 2 == 0
            params, menus = areu_instance(rng, distinct)
            ds = simulate_areu(params, menus)
            family = ds.menus()
            warp_ok = warp_over(ds, family) == []
            indep_ok = independence_over(ds, family) == []
            used = {params.order.argmax(menu) for menu in family}
            coincide = len({params.utility(r) for r in used}) == 1
            assert warp_ok == indep_ok == coincide == (not distinct)


def test_criterion_07_fanning_at_twenty():
    with budget("7 triangle fanning", 10):
        prizes = (F(0), F(1), F(3))
        k = 20
        points = {}
        for i in range(k + 1):
            for j in range(k + 1 - i):
                points[f"g{i}_{j}"] = (F(i, k), F(k - i - j, k), F(j, k))
        ranking = sorted(points, key=lambda a: (points[a][0], -points[a][2], a))
        neutral = F(1, 3)
        n = len(ranking)
        utilities = {a: (F(0), neutral + (1 - neutral) * F(n - r, n + 1), F(1))
                     for r, a in enumerate(ranking)}
        params = AreuParams.build(prizes, points,
                                  ReferenceOrder(tuple(ranking)), utilities)
        report = fanning_classify(params, prizes, k)
        assert report.category is Fanning.RISK_AVERSE_FAN_OUT
        samples = {(s.worse[0] + s.better[0], s.worse[1] + s.better[1]): s.slope
                   for s in report.samples}
        for (wa, ba), sa in samples.items():
            for (wb, bb), sb in samples.items():
                if wb <= wa and bb >= ba:
                    assert sb >= sa


def test_criterion_08_present_bias_fixture():
    with budget("8 present-bias fixture", 5):
        payments = {"a18_0": pay(18, 0), "a20_1": pay(20, 1),
                    "a15_0": pay(15, 0), "a18_3": pay(18, 3),
                    "a20_4": pay(20, 4)}
        ds = payment_dataset(payments, [
            (("a18_0", "a20_1"), ("a18_0",)),
            (("a18_3", "a20_4"), ("a20_4",)),
            (("a15_0", "a18_3", "a20_4"), ("a18_3",)),
        ])
        params = fit_pbdu(ds)
        assert params.discount_log(F(0)) < params.discount_log(F(3))
        flagged = stationarity_over(ds, ds.menus())
        assert {frozenset(m) for w in flagged for m in w.menus} == {
            frozenset(("a18_0", "a20_1")), frozenset(("a18_3", "a20_4"))}
        assert single_switching_check(params, pay(18, 0), pay(20, 1),
                                      range(0, 11)) == []


def test_criterion_09_pairwise_anchored_equivalence():
    with budget("9 pairwise/anchored equivalence (100 sims)", 30):
        rng = random.Random(2)
        for seed in range(100):
            size = rng.choice([3, 3, 4])
            members = {}
            while len(members) < size:
                members[f"m{len(members)}"] = pay(rng.randint(5, 30),
                                                  rng.randint(0, 8))
            menus = all_menus(members, 1, size)
            if len(menus) > 15:
                menus = [m for m in menus if len(m) < size] + \
                        [frozenset(members)]
            rows = []
            for menu in menus:
                pool = sorted(menu)
                mask = rng.randint(1, 2 ** len(pool) - 1)
                rows.append((menu, {m for i, m in enumerate(pool)
                                    if mask >> i & 1}))
            ds = payment_dataset(members, rows)
            assert pairwise_anchored_equivalence(ds).status == "agree"


def test_criterion_10_dictator_fixture():
    with budget("10 dictator fixture", 5):
        splits = {"s82": split(8, 2), "s73": split(7, 3), "s55": split(5, 5)}
        pair = frozenset(("s82", "s73"))
        triple = frozenset(splits)
        ds = split_dataset(splits, [(pair, ("s82",)), (triple, ("s73",))])
        params = fit_fspu(ds)
        inc_lo = params.value(F(0), F(3)) - params.value(F(0), F(2))
        inc_hi = params.value(F(1, 5), F(3)) - params.value(F(1, 5), F(2))
        assert inc_lo > 1 > inc_hi
        alts = [Alternative(k, v) for k, v in splits.items()]
        sim = simulate_fspu(params, alts, [pair, triple])
        assert sim.same_observations(ds)


def test_criterion_11_linkage_time():
    with budget("11a time linkage (100 sims)", 60):
        rng = random.Random(3)
        for seed in range(100):
            distinct = seed % 2 == 0
            params, payments, menus = pbdu_instance(rng, distinct)
            alts = [Alternative(k, v) for k, v in payments.items()]
            ds = simulate_pbdu(params, alts, menus)
            report = linkage_report_time(ds)
            warp_ok = report["warp"] == []
            stationarity_ok = report["stationarity"] == []
            refs = {min(payments[a].time for a in menu) for menu in menus}
            coincide = len({params.discount_log(r) for r in refs}) == 1
            assert warp_ok == stationarity_ok == coincide == (not distinct)


def test_criterion_11_linkage_social():
    with budget("11b social linkage (100 sims)", 60):
        rng = random.Random(4)
        for seed in range(100):
            distinct = seed % 2 == 0
            params, splits, menus, floor = fspu_instance(rng, distinct)
            alts = [Alternative(k, v) for k, v in splits.items()]
            ds = simulate_fspu(params, alts, menus)
            report = linkage_report_social(ds)
            warp_ok = report["warp"] == []
            ql_ok = report["quasilinearity"] == []
            refs = {min(gini(splits[a]) for a in menu) for menu in menus}
            tables = {dict(params.tables)[r] for r in refs}
            increments = {tuple(v2 - v1 for (_, v1), (_, v2)
                                in zip(table, table[1:]))
                          for table in tables}
            coincide = len(increments) == 1
            assert warp_ok == ql_ok == coincide == (not distinct)


def test_criterion_12_separation_matrix():
    with budget("12 separation matrix", 120):
        report = separation_suite()
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


def test_criterion_13_axiom_necessity():
    with budget("13 axiom necessity (100 seeds x 4 models)", 120):
        from refdep.risk import (
            check_avoidable_risk,
            check_fosd_dominance,
            check_risk_reference_dependence,
        )
        from refdep.social import (
            check_equality_reference_dependence,
            check_fairness,
            check_social_monotonicity,
        )
        from refdep.timepref import (
            check_outcome_monotonicity_impatience,
            check_present_bias,
            check_time_reference_dependence,
        )
        rng = random.Random(5)
        for seed in range(100):
            params = random_ordu_params(rng, ids=("a", "b", "c", "d"))
            ds = simulate_ordu(params, all_menus("abcd", 2, 4))
            assert check_reference_dependence(ds, WARP, IDENTITY_PSI) == []
        for seed in range(100):
            params = helpers.random_rho_monotone_areu(rng)
            names = [i for i, _ in params.lotteries]
            ds = simulate_areu(params, all_menus(names, 2, 3))
            assert check_fosd_dominance(ds) == []
            assert check_risk_reference_dependence(ds) == []
            assert check_avoidable_risk(ds) == []
        for seed in range(100):
            params, payments, menus = pbdu_instance(rng, rng.random() < 0.5)
            alts = [Alternative(k, v) for k, v in payments.items()]
            ds = simulate_pbdu(params, alts, menus)
            assert check_outcome_monotonicity_impatience(ds) == []
            assert check_time_reference_dependence(ds) == []
            assert check_present_bias(ds) == []
        for seed in range(100):
            params, splits, menus, floor = fspu_instance(rng, rng.random() < 0.5)
            alts = [Alternative(k, v) for k, v in splits.items()]
            ds = simulate_fspu(params, alts, menus)
            assert check_social_monotonicity(ds) == []
            assert check_equality_reference_dependence(ds) == []
            assert check_fairness(ds) == []
