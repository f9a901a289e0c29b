"""Shared builders, generators, and independent oracles for the tests.

The oracles here deliberately avoid the library's own algorithms: weak
orders are enumerated directly, rival models are replayed forward, and
feasibility cross-checks use elimination instead of the simplex.
"""

import json
import math
import random
import sys
from fractions import Fraction as F
from functools import cache
from itertools import accumulate, combinations, permutations, product

from refdep.choices import (
    Alternative,
    ChoiceDataset,
    DATED_PAYMENT,
    GENERIC,
    INCOME_SPLIT,
    KINDS,
    LOTTERY,
    LotteryPayload,
    PaymentPayload,
    SplitPayload,
    ViolationWitness,
    WARP,
    bits,
    integer_payloads,
    maximizers,
    revealed_rows,
    sort_witnesses,
    sorted_menus,
    validate_dataset,
)
from refdep.engine import (
    IDENTITY_PSI,
    ReferenceDependenceFailure,
    ReferenceOrder,
    _blocking,
    candidate_references,
    check_reference_dependence,
    witness_index,
)
from refdep.exceptions import (
    AxiomFails,
    ChoiceOutsideMenu,
    DuplicateMenu,
    EmptyChoice,
    InfeasibleFit,
    MixedPayloadKinds,
    RefdepError,
    SynthesisFailed,
    UnknownAlternative,
    UnknownLottery,
    UnobservedMenu,
    ValidationError,
)
from refdep import risk
from refdep.feasibility import LinearFeasibilityProblem
from refdep.ordu import OrduParams, check_subset_closed, simulate_ordu, verify_ordu
from refdep.risk import AreuParams, _below, _spreads, expected_utility, prize_grid, simulate_areu
from refdep.serialize import _alternatives_from_json, format_rational, parse_rational
from refdep.social import FspuParams, _gini_levels, gini, simulate_fspu
from refdep.timepref import TIME_PROPERTY, PbduParams, earliest_payments, simulate_pbdu


# -- dataset builders --------------------------------------------------------


def generic_dataset(rows):
    """rows: iterable of (menu string/iterable, choice string/iterable)."""
    alts = sorted({x for menu, _ in rows for x in menu})
    return validate_dataset(
        GENERIC, [Alternative(a) for a in alts],
        [(frozenset(menu), frozenset(choice)) for menu, choice in rows])


def lot(pairs):
    return LotteryPayload(tuple((F(x), F(p)) for x, p in pairs))


def lottery_dataset(lotteries, rows):
    alts = [Alternative(name, payload) for name, payload in lotteries.items()]
    return validate_dataset(
        LOTTERY, alts,
        [(frozenset(menu), frozenset(choice)) for menu, choice in rows])


def pay(x, t):
    return PaymentPayload(F(x), F(t))


def payment_dataset(payments, rows):
    alts = [Alternative(name, payload) for name, payload in payments.items()]
    return validate_dataset(
        DATED_PAYMENT, alts,
        [(frozenset(menu), frozenset(choice)) for menu, choice in rows])


def split(x, y):
    return SplitPayload(F(x), F(y))


def split_dataset(splits, rows, floor=F(1)):
    alts = [Alternative(name, payload) for name, payload in splits.items()]
    return validate_dataset(
        INCOME_SPLIT, alts,
        [(frozenset(menu), frozenset(choice)) for menu, choice in rows],
        floor=floor)


def all_menus(ids, min_size=2, max_size=None):
    ids = sorted(ids)
    max_size = max_size or len(ids)
    out = []
    for size in range(min_size, max_size + 1):
        out.extend(frozenset(c) for c in combinations(ids, size))
    return out


# -- the Allais datasets -----------------------------------------------------

ALLAIS_LOTTERIES = {
    "p1": lot([(3000, 1)]),
    "p2": lot([(4000, F(4, 5)), (0, F(1, 5))]),
    "q1": lot([(3000, F(1, 4)), (0, F(3, 4))]),
    "q2": lot([(4000, F(1, 5)), (0, F(4, 5))]),
}


def allais_dataset():
    return lottery_dataset(ALLAIS_LOTTERIES, [
        ("p1 p2".split(), ["p1"]), ("q1 q2".split(), ["q2"])])


def reverse_allais_dataset():
    return lottery_dataset(ALLAIS_LOTTERIES, [
        ("p1 p2".split(), ["p2"]), ("q1 q2".split(), ["q1"])])


# -- exhaustive tiny-universe enumerations ------------------------------------


def exhaustive_single_valued_datasets(ids=("a", "b", "c")):
    """Every single-valued choice function on all size->=2 menus."""
    menus = all_menus(ids)
    for picks in product(*[sorted(menu) for menu in menus]):
        yield generic_dataset([(menu, {pick}) for menu, pick in zip(menus, picks)])


def exhaustive_correspondences(ids=("a", "b", "c")):
    """Every choice correspondence on all size->=2 menus."""
    menus = all_menus(ids)
    option_sets = []
    for menu in menus:
        opts = []
        for size in range(1, len(menu) + 1):
            opts.extend(frozenset(c) for c in combinations(sorted(menu), size))
        option_sets.append(opts)
    for picks in product(*option_sets):
        yield generic_dataset([(menu, choice) for menu, choice in zip(menus, picks)])


# -- independent oracles ------------------------------------------------------


def weak_orders(members, keep=lambda top, rest: True):
    """Ordered set partitions, best class first (independent enumeration).
    A partition is extended past a class only when ``keep(class, rest)``
    holds, ``rest`` being the members still to place."""
    members = frozenset(members)
    if not members:
        yield ()
        return
    ids = sorted(members)
    for size in range(1, len(ids) + 1):
        for top in map(frozenset, combinations(ids, size)):
            if keep(top, members - top):
                for tail in weak_orders(members - top, keep):
                    yield (top,) + tail


def rationalizable_by_weak_order(dataset, menus):
    """Is each menu's choice its best members under one weak order?  The
    weak orders are enumerated best class first, each cut at the first
    class that is not exactly the choice of a menu it is the best of."""
    menus = [frozenset(m) for m in menus]

    def keep(top, rest):
        return all(menu & top == dataset.observations[menu] for menu in menus
                   if menu & top and menu <= top | rest)

    return next(weak_orders({x for m in menus for x in m}, keep), None) is not None


def ordu_bruteforce(dataset):
    """The first order, lexicographically by id, under which the menus
    each reference tops admit one weak order; None when no order does.
    A search over all orders: a prefix is cut once the menus its last
    member tops (those in the pool it leaves that hold it) admit none."""
    menus = list(dataset.observations)

    @cache
    def first(pool):
        if not pool:
            return ()
        for x in sorted(pool):
            if rationalizable_by_weak_order(dataset, [m for m in menus if x in m and m <= pool]):
                tail = first(pool - {x})
                if tail is not None:
                    return (x,) + tail
        return None

    return first(frozenset(dataset.universe))


def directed_pair_relations(members):
    """All asymmetric relations as sets of (winner, loser) pairs."""
    pairs = list(combinations(sorted(members), 2))
    for states in product(range(3), repeat=len(pairs)):
        edges = set()
        for (x, y), state in zip(pairs, states):
            if state == 1:
                edges.add((x, y))
            elif state == 2:
                edges.add((y, x))
        yield edges


def rsm_bruteforce(dataset):
    """Forward replay of every relation pair (independent of the checker)."""
    members = sorted(dataset.universe)
    observed = {menu: next(iter(choice))
                for menu, choice in dataset.observations.items()}
    for first in directed_pair_relations(members):
        for second in directed_pair_relations(members):
            good = True
            for menu, chosen in observed.items():
                survivors = [x for x in menu
                             if not any((y, x) in first for y in menu)]
                winners = [x for x in survivors
                           if not any((y, x) in second for y in survivors)]
                if winners != [chosen] and set(winners) != {chosen}:
                    good = False
                    break
            if good:
                return True
    return False


def _undominated(menu, strict):
    return frozenset(x for x in menu if not any((y, x) in strict for y in menu))


def rsm_forward(members, first, second):
    """The full choice function of a (first-stage, second-stage) relation
    pair, replayed forward; None when some menu's output is not a singleton."""
    table = {}
    for menu in all_menus(members, min_size=1):
        out = _undominated(_undominated(menu, first), second)
        if len(out) != 1:
            return None
        table[menu] = out
    return table


def pe_forward(members, strict):
    """The full maximal-set correspondence of a complete relation, or None
    when some menu comes out empty."""
    table = {}
    for menu in all_menus(members, min_size=1):
        out = _undominated(menu, strict)
        if not out:
            return None
        table[menu] = out
    return table


def pe_bruteforce(dataset):
    """Forward replay of every complete relation over the universe."""
    members = sorted(dataset.universe)
    for strict in directed_pair_relations(members):
        table = pe_forward(members, strict)
        if table is not None and all(table[menu] == choice
                                     for menu, choice in dataset.observations.items()):
            return True
    return False


# -- random model parameters ---------------------------------------------------


def random_ordu_params(rng, ids=("a", "b", "c", "d", "e")):
    ranking = list(ids)
    rng.shuffle(ranking)
    utilities = {ref: {alt: F(rng.randint(0, 6)) for alt in ids} for ref in ids}
    return OrduParams.build(ReferenceOrder(tuple(ranking)), utilities)


def random_valid_areu(rng):
    """Parameters on prizes (0, 1, 2): five distinct lotteries with
    denominators 2-4 whose supports cover the grid, a random order, and
    u(1) in 24ths weakly falling down it.  ``validate`` is the only
    filter: None when it rejects them."""
    while True:
        vectors = set()
        while len(vectors) < 5:
            den = rng.randint(2, 4)
            worst = rng.randint(0, den)
            best = rng.randint(0, den - worst)
            vectors.add((F(worst, den), F(den - worst - best, den), F(best, den)))
        if all(any(v[i] for v in vectors) for i in range(3)):
            break
    names = [f"l{i}" for i in range(5)]
    ranking = rng.sample(names, 5)
    levels = sorted((F(rng.randint(1, 23), 24) for _ in names), reverse=True)
    try:
        return AreuParams.build((F(0), F(1), F(2)), dict(zip(names, sorted(vectors))),
                                ReferenceOrder(tuple(ranking)),
                                {name: (F(0), u, F(1)) for name, u in zip(ranking, levels)})
    except ValidationError:
        return None


def random_valid_pbdu(rng):
    """Five dated payments on amounts 1-9 and times 0-4, with random
    quarter-grid log-utilities (ties rejected) and weakly rising negative
    log-discounts: (params, alternatives), or None when ``PbduParams``
    rejects the draw."""
    cells = rng.sample([(a, t) for a in range(1, 10) for t in range(5)], 5)
    amounts = sorted({F(a) for a, _ in cells})
    times = sorted({F(t) for _, t in cells})
    try:
        params = PbduParams(
            tuple(zip(amounts, sorted(F(rng.randint(0, 48), 4) for _ in amounts))),
            tuple(zip(times, sorted(-F(rng.randint(1, 12), 4) for _ in times))))
    except ValidationError:
        return None
    return params, [Alternative(f"p{i}", pay(a, t)) for i, (a, t) in enumerate(cells)]


def random_valid_fspu(rng):
    """Five income splits on own incomes 1-8 and other incomes 1-5, with
    random quarter-grid sharing increments that weakly grow toward more
    balanced references: (params, alternatives)."""
    cells = rng.sample([(x, y) for x in range(1, 9) for y in range(1, 6)], 5)
    splits = [Alternative(f"s{i}", split(x, y)) for i, (x, y) in enumerate(cells)]
    incomes = sorted({F(y) for _, y in cells})
    steps = [F(rng.randint(1, 8), 4) for _ in incomes[1:]]
    tables = {}
    for ref in sorted({gini(s.payload) for s in splits}, reverse=True):
        tables[ref] = tuple(zip(incomes, accumulate(steps, initial=F(0))))
        steps = [step + F(rng.randint(0, 4), 4) for step in steps]
    return FspuParams(tuple(sorted(tables.items()))), splits


def _random_fraction(rng, lo, hi, denom=24):
    lo, hi = F(lo), F(hi)
    span = hi - lo
    step = rng.randint(1, denom - 1)
    return lo + span * F(step, denom)


def areu_instance(rng, distinct):
    """Lottery universe with a guaranteed cross-reference probe.

    Contains a safe anchor (the sure middle prize), a probe pair whose
    ranking flips between the two utilities, and their half-mixtures
    with the anchor, plus noise lotteries.  With ``distinct`` the anchor
    reference carries a strictly more concave utility, which makes both
    a WARP and an Independence violation observable; otherwise all
    references share one utility and the data is classical.
    """
    w, m, b = sorted(rng.sample([0, 1, 2, 3, 5, 8, 13], 3))
    prizes = (F(w), F(m), F(b))
    neutral = F(m - w, b - w)
    v_hi = _random_fraction(rng, neutral + F(1, 50), F(24, 25))
    v_lo = _random_fraction(rng, F(1, 50), v_hi - F(1, 50))
    gamma = _random_fraction(rng, F(1, 10), F(9, 10), denom=12)
    lo_bound = v_lo + gamma * (1 - v_lo)
    hi_bound = v_hi + gamma * (1 - v_hi)
    eta = (lo_bound + hi_bound) / 2
    half = F(1, 2)
    vectors = {
        "anchor": (F(0), F(1), F(0)),
        "probe_hi": (F(0), 1 - gamma, gamma),       # gamma on best, rest middle
        "probe_lo": (1 - eta, F(0), eta),           # eta on best, rest worst
    }
    vectors["mix_hi"] = tuple(half * x for x in vectors["probe_hi"])
    vectors["mix_hi"] = tuple(a + half * s for a, s in
                              zip(vectors["mix_hi"], vectors["anchor"]))
    vectors["mix_lo"] = tuple(half * x + half * s for x, s in
                              zip(vectors["probe_lo"], vectors["anchor"]))
    target = 6 + rng.randint(0, 2)
    noise = 0
    while len(vectors) < target and noise < 12:
        noise += 1
        denom = rng.choice([4, 5, 6])
        cut1 = rng.randint(0, denom)
        cut2 = rng.randint(0, denom - cut1)
        vec = (F(cut1, denom), F(cut2, denom), F(denom - cut1 - cut2, denom))
        if vec not in vectors.values():
            vectors[f"n{noise}"] = vec
    names = sorted(vectors)
    edges = {(q, p) for p in names for q in names
             if p != q and _below(prizes, vectors[p], vectors[q])}
    ranking = []
    remaining = set(names)
    blocked = {n: {a for a, b in edges if b == n} for n in names}
    while remaining:
        ready = sorted(n for n in remaining if not (blocked[n] & remaining))
        head = "anchor" if "anchor" in ready else ready[0]
        ranking.append(head)
        remaining.discard(head)
    u_hi = (F(0), v_hi, F(1))
    u_lo = (F(0), v_lo, F(1)) if distinct else u_hi
    utilities = {name: (u_hi if name == "anchor" else u_lo) for name in names}
    params = AreuParams.build(prizes, vectors, ReferenceOrder(tuple(ranking)),
                              utilities)
    menus = all_menus(names, 2, 4)
    return params, menus


def random_rho_monotone_areu(rng, n_lotteries=5):
    """Valid parameters with per-reference utilities strictly ordered in
    concavity down the reference order (3-prize grids)."""
    w, m, b = sorted(rng.sample([0, 1, 2, 4, 7, 11], 3))
    prizes = (F(w), F(m), F(b))
    vectors = {}
    tries = 0
    while len(vectors) < n_lotteries and tries < 50:
        tries += 1
        denom = rng.choice([3, 4, 5, 6])
        cut1 = rng.randint(0, denom)
        cut2 = rng.randint(0, denom - cut1)
        vec = (F(cut1, denom), F(cut2, denom), F(denom - cut1 - cut2, denom))
        if vec not in vectors.values():
            vectors[f"l{len(vectors)}"] = vec
    names = sorted(vectors)
    # spreads and worst-prize dilutions rank below their sources, as
    # AreuParams.validate requires
    edges = {(q, p) for p in names for q in names
             if p != q and _below(prizes, vectors[p], vectors[q])}
    ranking = []
    remaining = set(names)
    blocked = {n: {a for a, b in edges if b == n} for n in names}
    while remaining:
        ready = sorted(n for n in remaining if not (blocked[n] & remaining))
        ranking.append(ready[0])
        remaining.discard(ready[0])
    levels = sorted({_random_fraction(rng, F(1, 20), F(19, 20), denom=40)
                     for _ in ranking}, reverse=True)
    while len(levels) < len(ranking):
        levels.append(levels[-1])
    utilities = {name: (F(0), levels[i], F(1)) for i, name in enumerate(ranking)}
    return AreuParams.build(prizes, vectors, ReferenceOrder(tuple(ranking)),
                            utilities)


def pbdu_instance(rng, distinct):
    """Amount/time grid containing the canonical reversal pattern."""
    x = rng.randint(10, 14)
    y = x + rng.randint(1, 4)
    t = rng.randint(2, 4)
    d0 = -F(rng.randint(5, 9), 2)
    dt = d0 + (F(rng.randint(1, 4), 2) if distinct else 0)
    times = [F(0), F(1), F(t), F(t + 1)]
    discounts = {F(0): d0, F(1): d0, F(t): dt, F(t + 1): dt}
    ly = F(rng.randint(0, 3))
    lx = ly + (d0 + dt) / 2
    w = x - rng.randint(1, 3)
    lw = lx + t * d0 - 1
    params = PbduParams(
        tuple(sorted([(F(w), lw), (F(x), lx), (F(y), ly)])),
        tuple(sorted(discounts.items())))
    payments = {
        "w0": pay(w, 0),
        "x0": pay(x, 0), "y1": pay(y, 1),
        "xt": pay(x, t), "yt1": pay(y, t + 1),
    }
    menus = all_menus(payments, 2, 4)
    return params, payments, menus


def fspu_instance(rng, distinct):
    """Income-split universe containing the sharing-flip pattern.

    The sharing increment between the two probe incomes is 2S at the
    perfectly balanced reference and S/2 at every other reference, with
    S the own-payment advantage of the stingy probe, so the generous
    probe wins exactly when the balanced split is attainable.
    """
    floor = F(1)
    y_hi = rng.randint(4, 6)
    y_lo = rng.randint(2, y_hi - 1)
    x = rng.randint(2 * y_hi, 2 * y_hi + 4)
    shift = rng.randint(1, 3)
    scale = F(rng.randint(2, 5))  # S
    m0 = rng.randint(1, 2)
    splits = {
        "balanced": split(m0, m0),
        "share_more": split(x, y_hi),
        "share_less": split(x + scale, y_lo),
        "share_more_shift": split(x + shift, y_hi),
        "share_less_shift": split(x + scale + shift, y_lo),
    }
    incomes = sorted({s.other for s in splits.values()})
    refs = sorted({gini(s) for s in splits.values()})
    span = y_hi - y_lo

    def increment(r, lo, hi):
        per_unit = (F(1, 2) if (distinct and r > 0) else 2) * scale / span
        return (hi - lo) * per_unit

    tables = {}
    for r in refs:
        table = [(incomes[0], F(0))]
        for lo, hi in zip(incomes, incomes[1:]):
            table.append((hi, table[-1][1] + increment(r, lo, hi)))
        tables[r] = tuple(table)
    params = FspuParams(tuple(sorted(tables.items())))
    menus = all_menus(splits, 2, 3)
    return params, splits, menus, floor


# -- perturbed model-generated data --------------------------------------------


def perturbed(rng, dataset):
    """Re-draw about a fifth of the observed choices at random."""
    observations = {}
    for menu, choice in dataset.observations.items():
        if rng.random() < 0.2:
            members = sorted(menu)
            choice = frozenset(rng.sample(members, rng.randint(1, len(members))))
        observations[menu] = choice
    return ChoiceDataset(dataset.kind, dataset.alternatives, observations, floor=dataset.floor)


def ordu_data(rng):
    params = random_ordu_params(rng)
    return simulate_ordu(params, all_menus(params.order.ranking))


def perturbed_ordu_data(seed):
    """ORDU data on the size-2-3 menus of five alternatives with about a
    fifth of the choices re-drawn: subset-closed, and on some seeds (19)
    passing the battery with no valid order."""
    params = random_ordu_params(random.Random(seed))
    return perturbed(random.Random(10_000 + seed),
                     simulate_ordu(params, all_menus(params.order.ranking, 2, 3)))


def large_ordu_data(rng):
    """Reference-dependent ORDU data on 8 alternatives and all 247 menus of
    size 2-8: hundreds of global WARP violations."""
    ids = tuple("abcdefgh")
    return simulate_ordu(random_ordu_params(rng, ids), all_menus(ids))


def areu_data(rng):
    params, menus = areu_instance(rng, rng.random() < 0.5)
    return simulate_areu(params, menus)


def pbdu_data(rng):
    params, payments, menus = pbdu_instance(rng, rng.random() < 0.5)
    return simulate_pbdu(params, [Alternative(k, v) for k, v in payments.items()], menus)


def fspu_data(rng):
    params, splits, menus, _ = fspu_instance(rng, rng.random() < 0.5)
    return simulate_fspu(params, [Alternative(k, v) for k, v in splits.items()], menus)


# -- tie-rich model-generated data ----------------------------------------------
#
# Parameters on small integer (or quarter) grids make exact ties common, so
# these datasets carry menus with several chosen members beside unchosen ones.


def has_tied_menu(dataset):
    """Some menu has two or more chosen members and an unchosen one."""
    return any(1 < len(choice) < len(menu) for menu, choice in dataset.observations.items())


def tie_rich(rng, draw):
    """The first dataset ``draw(rng)`` simulates that has a tied menu."""
    while True:
        dataset = draw(rng)
        if has_tied_menu(dataset):
            return dataset


def _increasing_ints(rng, count, start=0, step=3):
    values = [F(start)]
    while len(values) < count:
        values.append(values[-1] + rng.randint(1, step))
    return values


def integer_pbdu_data(rng):
    """Five dated payments scored by integer log-utilities and log-discounts."""
    amounts = sorted(rng.sample(range(1, 10), 3))
    times = range(4)
    log_utility = dict(zip(amounts, _increasing_ints(rng, 3, rng.randint(0, 2))))
    discounts = sorted(-F(rng.randint(1, 3)) for _ in times)
    params = PbduParams(tuple((F(a), v) for a, v in log_utility.items()),
                        tuple((F(t), d) for t, d in zip(times, discounts)))
    cells = rng.sample([(a, t) for a in amounts for t in times], 5)
    payments = [Alternative(f"p{i}", pay(a, t)) for i, (a, t) in enumerate(cells)]
    return simulate_pbdu(params, payments, all_menus([p.id for p in payments], 2, 4))


def integer_fspu_data(rng):
    """Five income splits scored by own income plus integer sharing
    utilities whose increments grow by 0 or 1 per more balanced reference."""
    cells = rng.sample([(x, y) for x in range(1, 9) for y in range(1, 6)], 5)
    splits = [Alternative(f"s{i}", split(x, y)) for i, (x, y) in enumerate(cells)]
    incomes = sorted({F(y) for _, y in cells})
    refs = sorted({gini(s.payload) for s in splits}, reverse=True)
    steps = [F(rng.randint(1, 3)) for _ in incomes[1:]]
    tables = {}
    for r in refs:  # least balanced first, increments weakly growing
        values = [F(0)]
        for step in steps:
            values.append(values[-1] + step)
        tables[r] = tuple(zip(incomes, values))
        steps = [step + rng.randint(0, 1) for step in steps]
    params = FspuParams(tuple(sorted(tables.items())))
    return simulate_fspu(params, splits, all_menus([s.id for s in splits], 2, 3))


# -- fractional payloads ---------------------------------------------------------
#
# Amounts, times and incomes over denominators 2-6, so that the integer
# payment and split views scale them; each draw holds a pair and its image
# under a non-integer common shift, equal times and equal Gini levels.


def fractional_pbdu_data(rng, den_amount=None, den_time=None):
    """Six dated payments, amounts over ``den_amount`` and times over
    ``den_time`` (each drawn from 2-6 when not given): two payments, the
    same two delayed by a common d, and two more, scored by PBDU
    parameters in halves over all menus of size 2-3."""
    da = den_amount or rng.randint(2, 6)
    dt = den_time or rng.randint(2, 6)
    amounts = [F(a, da) for a in sorted(rng.sample(range(da, 5 * da), 3))]
    t0, t1 = (F(t, dt) for t in rng.sample(range(3 * dt), 2))
    d = F(rng.choice([k for k in range(1, 2 * dt + 1) if dt == 1 or k % dt]), dt)
    a0, a1 = rng.sample(amounts, 2)
    cells = [(a0, t0), (a1, t1), (a0, t0 + d), (a1, t1 + d)]
    times = sorted({t for _, t in cells})
    while len(cells) < 6:
        cell = (rng.choice(amounts), rng.choice(times))
        if cell not in cells:
            cells.append(cell)
    log_utility = _increasing_ints(rng, 3, rng.randint(0, 2))
    if rng.random() < 0.5:
        discounts = [-F(rng.randint(2, 6), 2)] * len(times)
    else:
        discounts = sorted(-F(rng.randint(1, 6), 2) for _ in times)
    params = PbduParams(tuple((a, v / 2) for a, v in zip(amounts, log_utility)),
                        tuple(zip(times, discounts)))
    payments = [Alternative(f"p{i}", pay(a, t)) for i, (a, t) in enumerate(cells)]
    return simulate_pbdu(params, payments, all_menus([p.id for p in payments], 2, 3))


def fractional_fspu_data(rng, den_own=None, den_other=None):
    """Six income splits, own income over ``den_own`` and other income over
    ``den_other`` (each drawn from 2-6 when not given): two splits, the
    same two shifted by a common own payment s, a balanced split and a
    rescaled copy of the first (the same Gini), scored by FSPU sharing
    utilities in halves over all menus of size 2-4 (a Quasi-linearity
    witness needs a menu holding both of its menus)."""
    do = den_own or rng.randint(2, 6)
    dy = den_other or rng.randint(2, 6)
    y_lo, y_hi = (F(y, dy) for y in sorted(rng.sample(range(dy, 4 * dy), 2)))
    x = F(rng.randint(4 * do, 8 * do), do)
    gap = F(rng.randint(1, 2 * do), do)
    s = F(rng.choice([k for k in range(1, 2 * do + 1) if do == 1 or k % do]), do)
    m = F(rng.randint(do, 3 * do), do)
    payloads = [(x, y_hi), (x + gap, y_lo), (x + s, y_hi), (x + gap + s, y_lo),
                (m, m), (2 * x, 2 * y_hi)]
    splits = [Alternative(f"s{i}", split(own, other)) for i, (own, other) in enumerate(payloads)]
    incomes = sorted({other for _, other in payloads})
    refs = sorted({gini(a.payload) for a in splits}, reverse=True)
    steps = [F(rng.randint(1, 4), 2) for _ in incomes[1:]]
    shared = rng.random() < 0.5
    tables = {}
    for r in refs:  # least balanced first, increments weakly growing
        values = [F(0)]
        for step in steps:
            values.append(values[-1] + step)
        tables[r] = tuple(zip(incomes, values))
        if not shared:
            steps = [step + F(rng.randint(0, 2), 2) for step in steps]
    params = FspuParams(tuple(sorted(tables.items())))
    return simulate_fspu(params, splits, all_menus([a.id for a in splits], 2, 4))


def _battery_witnesses(battery, dataset):
    """Every ViolationWitness a model's ``battery`` reports, those inside a
    reference-dependence failure included."""
    for _, _, witnesses in battery(dataset):
        for w in witnesses:
            if isinstance(w, ViolationWitness):
                yield w
            else:
                for _, blocking in w.per_candidate:
                    yield from blocking


def with_fractional_shift_witness(rng, dataset, battery, kind):
    """The first ``perturbed`` copy of ``dataset`` whose ``battery`` reports
    a ``kind`` witness with a non-integer shift (a '/' in its narrative)."""
    while True:
        noisy = perturbed(rng, dataset)
        if any(w.kind == kind and "/" in w.narrative
               for w in _battery_witnesses(battery, noisy)):
            return noisy


def integer_areu_data(rng, n_prizes):
    """Five lotteries in quarters on an ``n_prizes`` grid.  On 3 prizes each
    reference takes u(1) from {1/4, 1/2, 3/4}, weakly falling down the
    order; on n > 3 prizes one utility in steps of 1/(4(n-1)) serves every
    reference."""
    prizes = tuple(F(x) for x in sorted(rng.sample(range(10), n_prizes)))
    grid = [vec for vec in product(range(5), repeat=n_prizes) if sum(vec) == 4]
    vectors = {f"l{i}": tuple(F(x, 4) for x in vec)
               for i, vec in enumerate(rng.sample(grid, 5))}
    names = sorted(vectors)
    blocked = {p: {q for q in names if q != p and _below(prizes, vectors[p], vectors[q])}
               for p in names}
    ranking, remaining = [], set(names)
    while remaining:
        head = min(n for n in remaining if not blocked[n] & remaining)
        ranking.append(head)
        remaining.discard(head)
    if n_prizes == 3:
        levels = sorted((F(rng.randint(1, 3), 4) for _ in ranking), reverse=True)
        utilities = {name: (F(0), level, F(1)) for name, level in zip(ranking, levels)}
    else:
        interior = sorted(rng.sample(range(1, 4 * (n_prizes - 1)), n_prizes - 2))
        shared = (F(0), *(F(x, 4 * (n_prizes - 1)) for x in interior), F(1))
        utilities = {name: shared for name in ranking}
    params = AreuParams.build(prizes, vectors, ReferenceOrder(tuple(ranking)), utilities)
    return simulate_areu(params, all_menus(names, 2, 3))


# -- the reference axioms by their sub-family definitions ------------------------
#
# Each runs the property on every sub-family the definition names, with no
# shared witness list, so the engine's filters can be checked against them.


def candidate_witnesses_by_families(dataset, prop, psi, pool):
    """(x, T's witnesses on the observed menus inside ``pool`` that
    contain x) for each admissible member x of ``pool``."""
    pool = frozenset(pool)
    inside = [m for m in dataset.menus() if m <= pool]
    return [(x, prop.check(dataset, [m for m in inside if x in m]))
            for x in sorted(psi.of(dataset, pool))]


def reference_dependence_by_families(dataset, prop, psi, universal=False):
    """(menu, ((x, witnesses), ...)) per failing menu, broken candidates only."""
    failures = []
    for menu in dataset.menus():
        results = candidate_witnesses_by_families(dataset, prop, psi, menu)
        broken = tuple((x, tuple(ws)) for x, ws in results if ws)
        if bool(broken) if universal else len(broken) == len(results):
            failures.append((menu, broken))
    return failures


def time_reference_dependence_by_pairs(dataset):
    """WARP and Stationarity on each menu pair sharing an earliest payment."""
    menus = dataset.menus()
    earliest = {m: earliest_payments(dataset, m) for m in menus}
    witnesses = set()
    for i, menu_a in enumerate(menus):
        for menu_b in menus[i:]:
            if earliest[menu_a] & earliest[menu_b]:
                witnesses.update(TIME_PROPERTY.check(dataset, {menu_a, menu_b}))
    return sort_witnesses(witnesses)


def anchored_subset_form_by_families(dataset):
    """WARP and Stationarity on each (menu, earliest anchor) family: the
    observed sub-menus of the menu that keep the anchor."""
    witnesses = set()
    for menu in dataset.menus():
        inside = [m for m in dataset.menus() if m <= menu]
        for anchor in sorted(earliest_payments(dataset, menu)):
            witnesses.update(TIME_PROPERTY.check(dataset, [m for m in inside if anchor in m]))
    return sort_witnesses(witnesses)


# -- all-pairs scans: the references for the menu lattice ----------------------
#
# Each compares every pair of menus directly, so the bitmask answers of
# ``ChoiceDataset.lattice`` can be checked against them.


def nested_pairs_by_scan(dataset):
    """(small, big) for observed small strictly inside big, big first."""
    menus = sorted_menus(dataset.observations)
    return [(small, big) for big in menus for small in menus if small < big]


def warp_by_scan(dataset, family):
    """WARP witnesses inside ``family``, by testing every ordered pair."""
    fam = [frozenset(m) for m in family]
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


def _fmt(ids):
    return "{" + ",".join(sorted(ids)) + "}"


def invariance_by_scan(dataset, family, kind, correspondences):
    """Invariance witnesses inside ``family``, by testing every menu pair
    against every correspondence."""
    fam = sorted_menus({frozenset(m) for m in family})
    obs = dataset.observations
    witnesses = []
    for x, y, x2, y2, narrative in correspondences:
        for menu_a in fam:
            if not (x in obs[menu_a] and y in menu_a):
                continue
            for menu_b in fam:
                if y2 in obs[menu_b] and x2 in menu_b and x2 not in obs[menu_b]:
                    witnesses.append(ViolationWitness(kind, (menu_a, menu_b), narrative))
    return sort_witnesses(witnesses)


def psi_heredity_by_scan(dataset, psi):
    """A message naming the members and the first nested pair (in
    ``nested_pairs_by_scan`` order) where ``psi`` loses heredity, or None."""
    table = {menu: psi.of(dataset, menu) for menu in dataset.observations}
    for small, big in nested_pairs_by_scan(dataset):
        stuck = (table[big] & small) - table[small]
        if stuck:
            return (f"{psi.name}: {sorted(stuck)} admissible in {sorted(big)} "
                    f"but not in sub-menu {sorted(small)}")
    return None


# -- the per-menu Psi evaluators --------------------------------------------------
#
# The bodies the built-in admissible-reference maps had before they were
# given by a relation, one evaluation per menu: the references for
# ``PsiMap.of`` and for the engine's admits masks.


def least_risky_by_loop(dataset, menu):
    spreads = _spreads(dataset)
    return frozenset(p for p in menu if not any((p, q) in spreads for q in menu))


def earliest_payments_by_maximizers(dataset, menu):
    _, times = integer_payloads(dataset)["time"]
    return maximizers(sorted(menu), lambda x: -times[x])


def most_balanced_by_maximizers(dataset, menu):
    level, _ = _gini_levels(dataset)
    return maximizers(menu, lambda x: -level[x])


# -- member masks ----------------------------------------------------------------
#
# The per-alternative masks ``MenuLattice`` built with two walks, one over
# the menus and one over their choices, before it filled both in one: the
# reference for ``contain`` and ``chosen`` and for other per-set masks.


def member_masks(sets) -> dict:
    """Per alternative, the bitmask of the positions in ``sets`` of the
    sets holding it."""
    out = {}
    for pos, members in enumerate(sets):
        for alt in members:
            out[alt] = out.get(alt, 0) | 1 << pos
    return out


# -- witness masks by frozensets ---------------------------------------------
#
# The per-alternative masks ``engine._witness_masks`` built from each
# witness's union and intersection before it read lattice positions: the
# reference for them.


def witness_masks_by_sets(dataset, prop):
    """(spans, shared): per alternative, the witness-index entries whose
    union of menus holds it and those whose every menu holds it."""
    index = witness_index(dataset, prop)
    return (member_masks(frozenset().union(*w.menus) for w in index),
            member_masks(frozenset.intersection(*w.menus) for w in index))


# -- blocked masks by witnesses ------------------------------------------------
#
# The per-witness loop ``engine._blocked`` ran for every property before a
# property could give a blocking rule: the reference for WARP's rule.


def blocked_by_witnesses(dataset, prop):
    """Per alternative x, the observed menus containing every menu of some
    witness-index entry whose menus all hold x."""
    lattice = dataset.lattice()
    blocked = {}
    for witness in witness_index(dataset, prop):
        pools = lattice.full
        for menu in witness.menus:
            pools &= lattice.containing(menu)
        for x in frozenset.intersection(*witness.menus):
            blocked[x] = blocked.get(x, 0) | pools
    return blocked


# -- the per-menu loops: the references for the lattice-mask decisions ---------
#
# The bodies ``engine.check_reference_dependence``, ``choices.dominance_over``
# and ``choices.expansion_over`` had before they decided on lattice masks:
# each observed menu's candidates through ``engine._blocking``, ``beats`` on
# each (menu, chosen loser, member) and ``clashes`` on each nested pair.


def reference_dependence_by_menus(dataset, prop, psi, universal=False):
    failures = []
    for menu in dataset.menus():
        results = _blocking(dataset, prop, psi, menu)
        broken = [(x, blocking) for x, blocking in results if blocking]
        if (bool(broken) if universal else len(broken) == len(results)):
            index = witness_index(dataset, prop)
            failures.append(ReferenceDependenceFailure(menu, tuple(
                (x, tuple(index[pos] for pos in bits(blocking)))
                for x, blocking in broken)))
    return failures


def dominance_by_menus(dataset, menus, beats, describe):
    witnesses = []
    for menu in menus:
        members = sorted(menu)
        for loser in sorted(dataset.observations[menu]):
            for winner in members:
                if winner != loser and beats(winner, loser):
                    kind, narrative = describe(winner, loser)
                    witnesses.append(ViolationWitness(kind, (menu,), narrative))
    return witnesses


def expansion_by_nested_pairs(dataset, kind, clashes):
    return sort_witnesses({ViolationWitness(kind, (small, big), narrative)
                           for small, big in nested_pairs_by_scan(dataset)
                           for narrative in clashes(small, big)})


# -- the lottery relations and present bias by explicit loops ----------------
#
# The bodies ``risk`` had before its relations shared one CDF walk and one
# mixture-weight derivation, and the doubleton-by-doubleton clause 1 of
# ``timepref.check_present_bias``: the references for the shared forms.


def fosd_by_loop(prizes, p, q):
    if p == q:
        return False
    fp = fq = F(0)
    for i in range(len(prizes)):
        fp += p[i]
        fq += q[i]
        if fp > fq:
            return False
    return True


def mps_by_loop(prizes, p, q):
    if p == q:
        return False
    mean_p = sum((prizes[i] * p[i] for i in range(len(prizes))), F(0))
    mean_q = sum((prizes[i] * q[i] for i in range(len(prizes))), F(0))
    if mean_p != mean_q:
        return False
    fp = fq = acc = F(0)
    for i in range(len(prizes) - 1):
        fp += p[i]
        fq += q[i]
        acc += (fp - fq) * (prizes[i + 1] - prizes[i])
        if acc < 0:
            return False
    return True


def extreme_spread_by_loop(prizes, p, q):
    n = len(prizes)
    interior = range(1, n - 1)
    beta = None
    for i in interior:
        if q[i] != 0:
            beta = p[i] / q[i]
            break
    if beta is None:
        beta = F(0)  # q lives on the extreme prizes only
    if not 0 <= beta < 1:
        return False
    for i in interior:
        if p[i] != beta * q[i]:
            return False
    alpha = (p[-1] - beta * q[-1]) / (1 - beta)
    if not q[-1] < alpha < 1 - q[0]:
        return False
    return p[0] == beta * q[0] + (1 - beta) * (1 - alpha)


def worst_dilution_by_loop(prizes, p, q):
    if p == q:
        return False
    beta = None
    for i in range(1, len(prizes)):
        if q[i] != 0:
            beta = p[i] / q[i]
            break
    if beta is None:
        return False  # q is the degenerate worst-prize lottery
    if not 0 <= beta < 1:
        return False
    for i in range(1, len(prizes)):
        if p[i] != beta * q[i]:
            return False
    return p[0] == beta * q[0] + (1 - beta)


def mixture_weight_by_loop(va, vb, vm):
    alpha = None
    for x, y, z in zip(va, vb, vm):
        if x == y:
            if z != x:
                return None
            continue
        candidate = (z - y) / (x - y)
        if alpha is None:
            alpha = candidate
        elif alpha != candidate:
            return None
    if alpha is None or not 0 < alpha < 1:
        return None
    return alpha


# -- the lottery domain in Fractions ------------------------------------------
#
# The ``Fraction`` bodies ``risk`` had before its hot paths read the cached
# integer view (numerators over one common denominator D): the references
# for the scale-free relations, the gcd-primitive diff key, the
# cross-multiplied mixture clause, the integer menu rows and the u(1)
# intervals built from them.  ``fosd`` and ``mps`` kept their bodies; their
# references are the loops above.


def fraction_vectors(dataset):
    """Each lottery's ``Fraction`` probability vector on the prize grid."""
    prizes = prize_grid(dataset)
    return {alt: tuple(dataset.payload(alt).prob(x) for x in prizes)
            for alt in dataset.universe}


def fosd_dominance_by_loop(dataset):
    """FOSD witnesses by the loop ``risk.check_fosd_dominance`` ran before
    the dominance checks shared ``choices.dominance_over``, on the
    ``Fraction`` vectors and ``fosd_by_loop``."""
    prizes, vectors = prize_grid(dataset), fraction_vectors(dataset)
    witnesses = []
    for menu in dataset.menus():
        picked = dataset.observations[menu]
        for loser in sorted(picked):
            for winner in sorted(menu):
                if winner != loser and fosd_by_loop(prizes, vectors[winner], vectors[loser]):
                    witnesses.append(ViolationWitness(
                        kind="FOSD",
                        menus=(menu,),
                        narrative=f"{loser} chosen although {winner} dominates it"))
    return witnesses


def _fraction_scale(p, q, coords):
    beta = next((p[i] / q[i] for i in coords if q[i] != 0), F(0))
    return beta if all(p[i] == beta * q[i] for i in coords) else None


def extreme_spread_by_fractions(prizes, p, q):
    beta = _fraction_scale(p, q, range(1, len(prizes) - 1))
    if beta is None or not 0 <= beta < 1:
        return False
    alpha = (p[-1] - beta * q[-1]) / (1 - beta)
    return q[-1] < alpha < 1 - q[0] and p[0] == beta * q[0] + (1 - beta) * (1 - alpha)


def worst_dilution_by_fractions(prizes, p, q):
    if p == q:
        return False
    beta = _fraction_scale(p, q, range(1, len(prizes)))
    return beta is not None and 0 <= beta < 1 and p[0] == beta * q[0] + (1 - beta)


def diff_key_by_fractions(vec):
    """(direction, sign): the vector over its first nonzero entry's size."""
    pivot = next((x for x in vec if x != 0), None)
    if pivot is None:
        return None
    return (tuple(x / abs(pivot) for x in vec), pivot > 0)


def mixture_correspondences_by_fractions(dataset):
    """Independence's correspondences from ``Fraction`` diffs, alpha as a
    quotient and the mixer built and tested entry by entry."""
    vectors = fraction_vectors(dataset)
    ids = sorted(vectors)
    diffs = {(a, b): tuple(x - y for x, y in zip(vectors[a], vectors[b]))
             for a in ids for b in ids if a != b}
    groups = {}
    for pair, vec in diffs.items():
        key = diff_key_by_fractions(vec)
        if key is not None:
            groups.setdefault(key, []).append(pair)
    corr = []
    for pairs in groups.values():
        for p, q in pairs:
            base = diffs[(p, q)]
            pivot = next(i for i, x in enumerate(base) if x != 0)
            for p2, q2 in pairs:
                alpha = diffs[(p2, q2)][pivot] / base[pivot]
                if not 0 < alpha < 1:
                    continue
                mixer = tuple((x2 - alpha * x) / (1 - alpha)
                              for x2, x in zip(vectors[p2], vectors[p]))
                if all(x >= 0 for x in mixer):
                    a = format_rational(alpha)
                    corr.append((p, q, p2, q2, f"clause 1: {p} chosen over {q} "
                                 f"but the {a}-mixture {p2} loses to {q2}"))
                    corr.append((p2, q2, p, q, f"clause 2: {p2} chosen over {q2} "
                                 f"but the {a}-mixture {p} loses to {q}"))
    return corr


def menu_rows_by_fractions(dataset, menu):
    """(relation, head - other) over the menu's revealed rows, in Fractions."""
    vectors = fraction_vectors(dataset)
    return [(relation, tuple(a - b for a, b in zip(vectors[head], vectors[other])))
            for relation, head, other in revealed_rows(dataset, menu)]


def interval_by_fractions(rows):
    """The u(1) interval of (a, c, relation) rows a*u(1) + c (relation) 0
    inside the open (0, 1), each root a ``Fraction`` quotient."""
    def tighter(u, v):
        return min(u, v, key=lambda bound: (bound[0], not bound[1]))

    lower, upper = (F(0), True), (F(1), True)
    for a, c, relation in rows:
        if a == 0:
            if not (c > 0 if relation == ">" else c == 0):
                return None
            continue
        root = -c / a
        if relation == "=":
            lower = max(lower, (root, False))
            upper = tighter(upper, (root, False))
        elif a > 0:
            lower = max(lower, (root, True))
        else:
            upper = tighter(upper, (root, True))
    (lo, lo_open), (hi, hi_open) = lower, upper
    if lo < hi or (lo == hi and not lo_open and not hi_open):
        return lower, upper
    return None


def interval_keys_by_fractions(rows):
    """``risk._interval``'s ordered bound keys with each root the
    ``Fraction`` -c/a itself, inside the open (0, 1): (value, 1) an open
    lower bound, (value, -1) an open upper bound, (value, 0) a closed one;
    (1, 1), (0, -1) when a constant row fails."""
    lower, upper = (F(0), 1), (F(1), -1)
    for a, c, relation in rows:
        if a == 0:
            if not (c > 0 if relation == ">" else c == 0):
                return (F(1), 1), (F(0), -1)
            continue
        root = F(-c) / a
        if relation == "=":
            lower, upper = max(lower, (root, 0)), min(upper, (root, 0))
        elif a > 0:
            lower = max(lower, (root, 1))
        else:
            upper = min(upper, (root, -1))
    return lower, upper


def ranks_of(intervals):
    """Each (lower, upper) pair of ``intervals`` as the ranks of its keys
    among the distinct keys of all of them."""
    rank = {key: k for k, key in enumerate(sorted({key for pair in intervals for key in pair}))}
    return [(rank[lower], rank[upper]) for lower, upper in intervals]


def reference_assignments_unpruned(dataset, order):
    """``risk._reference_assignments`` with no interval cut: every
    complete assignment whose references the closed ``order`` can rank
    above the rest of their menus, in the same DFS order (largest menus
    first, candidates safest first, ties by id)."""
    menus = sorted(dataset.menus(), key=lambda m: (-len(m), sorted(m)))
    vectors = fraction_vectors(dataset)
    candidates = {m: sorted(least_risky_by_loop(dataset, m), key=lambda i: (vectors[i], i))
                  for m in menus}

    def rec(pos, assigned, order):
        if pos == len(menus):
            yield dict(assigned), order
            return
        menu = menus[pos]
        for ref in candidates[menu]:
            extended = risk._close(order, ((ref, y) for y in menu if y != ref))
            if extended is not None:
                assigned[menu] = ref
                yield from rec(pos + 1, assigned, extended)
                del assigned[menu]

    yield from rec(0, {}, order)


def present_bias_delays_by_pairs(dataset):
    """Clause 1 of present bias, each observed doubleton against each."""
    witnesses = []
    menus = dataset.menus()
    pays = {alt: dataset.payload(alt) for alt in dataset.universe}

    def timeline(menu):
        members = sorted(menu, key=lambda alt: (pays[alt].time, pays[alt].amount))
        times = [pays[alt].time for alt in members]
        if len(set(times)) != len(times):
            return None
        return members, times

    doubles = [m for m in menus if len(m) == 2]
    for menu_a in doubles:
        line_a = timeline(menu_a)
        if line_a is None:
            continue
        (e1, l1), (ta, tb) = line_a
        for menu_b in doubles:
            line_b = timeline(menu_b)
            if line_b is None:
                continue
            (e2, l2), (sa, sb) = line_b
            d = sa - ta
            if d <= 0 or sb - tb != d:
                continue
            if pays[e1].amount != pays[e2].amount or \
                    pays[l1].amount != pays[l2].amount:
                continue
            if dataset.observations[menu_a] == {l1} and \
                    dataset.observations[menu_b] != {l2}:
                witnesses.append(ViolationWitness(
                    kind="PresentBias",
                    menus=(menu_a, menu_b),
                    narrative=(f"the later option {l1} wins, but after delaying "
                               f"both by {format_rational(d)} it no longer does"),
                ))
    return sort_witnesses(set(witnesses))


# -- the doubleton-pruning recursion: the reference for order synthesis ---------


def synthesize_by_pruning(dataset, prop, psi):
    """A Psi-consistent reference order by the finite doubleton-pruning
    recursion, the reference for ``engine.synthesize_reference_order``.

    Start each observed menu's image at its candidate set, walk the
    doubletons of the universe in id order, and at each one delete (from
    every observed superset) a member whose removal empties no image,
    asserting after each step that no image is empty and that images keep
    the alpha property.  Once all doubletons are visited the surviving
    images are singletons and the kept-over relation is the order.
    Raises AxiomFails when the axiom fails and SynthesisFailed when the
    recursion gets stuck or its order fails the post-checks.
    """
    failures = check_reference_dependence(dataset, prop, psi)
    if failures:
        raise AxiomFails(f"reference dependence ({prop.name} / {psi.name})", failures)
    images = dict(candidate_references(dataset, prop, psi))
    universe = sorted(dataset.universe)
    lattice = dataset.lattice()
    beats = set()

    def deletable(z, supersets):
        return all(images[menu] - {z} for menu in supersets if z in images[menu])

    for x, y in combinations(universe, 2):
        supersets = lattice.at(lattice.containing((x, y)))
        dx = deletable(x, supersets)
        dy = deletable(y, supersets)
        if dx and dy:
            drop, keep = (y, x)  # free pair: keep the lexicographically smaller
        elif dx:
            drop, keep = x, y
        elif dy:
            drop, keep = y, x
        else:
            raise SynthesisFailed(f"neither of {{{x},{y}}} is deletable")
        beats.add((keep, drop))
        for menu in supersets:
            images[menu] = images[menu] - {drop}
        for menu, image in images.items():
            assert image, f"image of {sorted(menu)} emptied"
            for sub in lattice.at(lattice.within(menu)):
                assert image & sub <= images[sub], "alpha property broken"

    wins = {x: 0 for x in universe}
    for keep, _ in beats:
        wins[keep] += 1
    ranking = sorted(universe, key=lambda z: (-wins[z], z))
    if any((hi, lo) not in beats for hi, lo in combinations(ranking, 2)):
        raise SynthesisFailed("kept-over relation is cyclic")
    order = ReferenceOrder(tuple(ranking))
    for menu, image in images.items():
        if len(image) != 1 or order.argmax(menu) not in image:
            raise SynthesisFailed(f"image of {sorted(menu)} did not collapse")
    if order_breaks_a_reference_class(dataset, prop, order):
        raise SynthesisFailed("a reference class violates the property")
    return order


def order_breaks_a_reference_class(dataset, prop, order):
    """Whether a witness of ``prop`` lies inside one reference class of
    ``order``: x tops the union of its menus and belongs to all of them."""
    return any(order.argmax(frozenset().union(*w.menus)) in frozenset.intersection(*w.menus)
               for w in witness_index(dataset, prop))


# -- the prediction-set construction: the reference for the ORDU fit -------------


def ordu_by_prediction_sets(dataset):
    """ORDU params by the prediction-set construction, the reference for
    ``ordu.build_ordu``.

    The order is ``ordu_bruteforce``'s.  Each reference x ranks its
    prediction set (x and the alternatives below x in the order that it
    does not strictly beat in their observed doubleton) by the observed
    tripletons {x, a, b}, tying pairs never observed together, and gives
    every other alternative 0.  Raises InfeasibleFit when no order exists,
    a prediction set is ranked intransitively or the params mispredict
    the data.
    """
    check_subset_closed(dataset)
    failures = check_reference_dependence(dataset, WARP, IDENTITY_PSI)
    if failures:
        raise AxiomFails("reference dependence (WARP / identity)", failures)
    ranking = ordu_bruteforce(dataset)
    if ranking is None:
        raise InfeasibleFit("no order admits one weak order per reference class")
    order = ReferenceOrder(ranking)
    ranks = order.ranks
    utilities = {}
    for x in order.ranking:
        pset = [x] + [y for y in order.ranking if ranks[y] > ranks[x]
                      and y in dataset.observations.get(frozenset((x, y)), ())]

        def weakly_better(a, b):
            probe = frozenset((x, a, b))
            return a == b or probe not in dataset.observations \
                or a in dataset.observations[probe]

        table = {alt: F(0) for alt in order.ranking}
        level, remaining = len(pset), pset
        while remaining:
            top = [a for a in remaining if all(weakly_better(a, b) for b in remaining)]
            if not top:
                raise InfeasibleFit(
                    f"the menus with reference {x!r} rank its prediction set intransitively")
            table.update(dict.fromkeys(top, F(level)))
            remaining = [a for a in remaining if a not in top]
            level -= 1
        utilities[x] = table
    params = OrduParams.build(order, utilities)
    if verify_ordu(params, dataset):
        raise InfeasibleFit("the constructed utilities do not reproduce the data")
    return params


# -- payments and splits read as Fractions ----------------------------------------
#
# The bodies ``choices``, ``timepref`` and ``social`` had before they read
# the integer payment and split views: the references for those views.


def shift_correspondences_by_fractions(dataset, fixed, moved, allowed, label):
    """Correspondences of a common shift of ``moved`` with ``fixed`` held,
    each shift a ``Fraction`` difference of payload coordinates."""
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
                        out.append((x, y, x2, y2, (
                            f"{x} chosen alongside {y}, but after a common {label} "
                            f"of {F(shift)} the shifted {y2} is chosen "
                            f"while {x2} is not")))
    return out


def earliest_payments_by_fractions(dataset, menu):
    return maximizers(sorted(menu), lambda x: -dataset.payload(x).time)


def most_balanced_by_fractions(dataset, menu):
    return maximizers(menu, lambda x: -gini(dataset.payload(x)))


def outcome_monotonicity_impatience_by_fractions(dataset):
    witnesses = []
    for menu in dataset.menus():
        if len(menu) != 2:
            continue
        x, y = sorted(menu)
        px, py = dataset.payload(x), dataset.payload(y)
        expected = None
        if px.time == py.time and px.amount != py.amount:
            expected = x if px.amount > py.amount else y
            tag = "OutcomeMonotonicity"
        elif px.amount == py.amount and px.time != py.time:
            expected = x if px.time < py.time else y
            tag = "Impatience"
        if expected is not None and dataset.observations[menu] != {expected}:
            witnesses.append(ViolationWitness(
                kind=tag, menus=(menu,),
                narrative=f"{expected} should be the unique choice"))
    return witnesses


def present_bias_by_fractions(dataset):
    """Both clauses of present bias; the delays of clause 1 come from
    ``shift_correspondences_by_fractions``, and clause 2 maps the first
    triple's times onto the second's by a ``Fraction`` affine map."""
    witnesses = []
    observed = dataset.observations
    pays = {alt: dataset.payload(alt) for alt in dataset.universe}

    def timeline(menu):
        members = sorted(menu, key=lambda alt: (pays[alt].time, pays[alt].amount))
        times = [pays[alt].time for alt in members]
        if len(set(times)) != len(times):
            return None
        return members, times

    delays = shift_correspondences_by_fractions(dataset, "amount", "time",
                                                lambda d: d > 0, "delay")
    for late, early, late2, early2, _ in delays:
        menu_a, menu_b = frozenset((early, late)), frozenset((early2, late2))
        if pays[early].time < pays[late].time and observed.get(menu_a) == {late} \
                and menu_b in observed and observed[menu_b] != {late2}:
            delay = pays[late2].time - pays[late].time
            witnesses.append(ViolationWitness(
                kind="PresentBias",
                menus=(menu_a, menu_b),
                narrative=(f"the later option {late} wins, but after delaying "
                           f"both by {format_rational(delay)} it no longer does"),
            ))
    triples = [m for m in dataset.menus() if len(m) == 3]
    for menu_a in triples:
        line_a = timeline(menu_a)
        if line_a is None or dataset.observations[menu_a] != menu_a:
            continue
        members_a, times_a = line_a
        for menu_b in triples:
            if menu_b == menu_a:
                continue
            line_b = timeline(menu_b)
            if line_b is None:
                continue
            members_b, times_b = line_b
            if any(pays[x].amount != pays[y].amount
                   for x, y in zip(members_a, members_b)):
                continue
            span = times_a[2] - times_a[0]
            scale = (times_b[2] - times_b[0]) / span
            offset = times_b[0] - scale * times_a[0]
            if not 0 < scale < 1:
                continue
            if times_b[1] != scale * times_a[1] + offset:
                continue
            picked = dataset.observations[menu_b]
            if members_b[0] in picked and members_b[2] in picked \
                    and members_b[1] not in picked:
                witnesses.append(ViolationWitness(
                    kind="PresentBias",
                    menus=(menu_a, menu_b),
                    narrative=("indifference among all three did not carry the "
                               "middle option through the time rescaling"),
                ))
    return sort_witnesses(set(witnesses))


def fairness_by_fractions(dataset):
    witnesses = []
    for small, big in nested_pairs_by_scan(dataset):
        c_small = dataset.observations[small]
        c_big = dataset.observations[big]
        for generous in sorted(c_small):
            g = dataset.payload(generous)
            for stingy in sorted(small):
                s = dataset.payload(stingy)
                if s.other >= g.other or stingy in c_small:
                    continue
                if stingy in c_big:
                    witnesses.append(ViolationWitness(
                        kind="Fairness",
                        menus=(small, big),
                        narrative=(f"{generous} (sharing {format_rational(g.other)}) "
                                   f"beat {stingy} (sharing {format_rational(s.other)}), "
                                   f"yet expansion revives {stingy}"),
                    ))
    return sort_witnesses(set(witnesses))


# -- expansion clauses and doubleton triangles by their own loops --------------
#
# The loops ``risk.check_avoidable_risk``, ``risk.betweenness_over`` and
# ``risk.transitivity_over`` ran before the expansion clause shared
# ``choices.expansion_over`` and the triangles shared ``risk._triangles``,
# on the ``Fraction`` vectors and the lattice-free nested pairs.


def avoidable_risk_by_loop(dataset):
    vectors = fraction_vectors(dataset)
    diffs, one_negative = {}, {}
    for a in vectors:
        for b in vectors:
            if a != b:
                vec = tuple(x - y for x, y in zip(vectors[a], vectors[b]))
                diffs[(a, b)] = diff_key_by_fractions(vec)
                one_negative[(a, b)] = diffs[(a, b)] is not None \
                    and sum(1 for x in vec if x < 0) == 1
    witnesses = []
    for small, big in nested_pairs_by_scan(dataset):
        c_small = dataset.observations[small]
        c_big = dataset.observations[big]
        for safe1 in sorted(c_small):
            for risky1 in sorted(small):
                if risky1 == safe1 or not one_negative[(risky1, safe1)]:
                    continue
                key1 = diffs[(risky1, safe1)]
                for risky2 in sorted(c_big):
                    for safe2 in sorted(big - c_big):
                        if diffs[(risky2, safe2)] == key1:
                            witnesses.append(ViolationWitness(
                                kind="AvoidableRisk",
                                menus=(small, big),
                                narrative=(
                                    f"{safe1} beats {risky1} in the sub-menu but the "
                                    f"proportional decomposition ({risky2} over "
                                    f"{safe2}) wins strictly after expansion"),
                            ))
    return sort_witnesses(witnesses)


def betweenness_by_loop(dataset, family):
    fam = {frozenset(m) for m in family}
    doubles = sorted_menus(m for m in fam if len(m) == 2)
    vectors = fraction_vectors(dataset)
    witnesses = []
    ids = sorted(dataset.universe)
    for pair in doubles:
        p, q = sorted(pair)
        for a, b in ((p, q), (q, p)):
            for mid in ids:
                if mid in (a, b):
                    continue
                alpha = mixture_weight_by_loop(vectors[a], vectors[b], vectors[mid])
                if alpha is None or frozenset((a, mid)) not in fam \
                        or frozenset((mid, b)) not in fam:
                    continue
                c_ab = dataset.observations[pair]
                c_am = dataset.observations[frozenset((a, mid))]
                c_mb = dataset.observations[frozenset((mid, b))]
                if c_ab == {a}:
                    if c_am != {a} or c_mb != {mid}:
                        witnesses.append(ViolationWitness(
                            kind="Betweenness",
                            menus=(pair, frozenset((a, mid)), frozenset((mid, b))),
                            narrative=(f"{a} strictly beats {b} but the mixture "
                                       f"{mid} breaks the strict chain")))
                elif c_ab == pair:
                    if c_am != frozenset((a, mid)) or c_mb != frozenset((mid, b)):
                        witnesses.append(ViolationWitness(
                            kind="Betweenness",
                            menus=(pair, frozenset((a, mid)), frozenset((mid, b))),
                            narrative=(f"{a} and {b} tie but the mixture {mid} "
                                       f"breaks the indifference chain")))
    return sort_witnesses(set(witnesses))


def transitivity_by_loop(dataset, family):
    fam = {frozenset(m) for m in family}
    doubles = sorted_menus(m for m in fam if len(m) == 2)
    members = sorted({x for m in doubles for x in m})
    witnesses = []
    for trio in combinations(members, 3):
        menus = [frozenset(pair) for pair in combinations(trio, 2)]
        if not all(m in fam for m in menus):
            continue
        for p, q, s in permutations(trio):
            pq, qs, sp = frozenset((p, q)), frozenset((q, s)), frozenset((s, p))
            if p in dataset.observations[pq] and q in dataset.observations[qs] \
                    and p not in dataset.observations[sp]:
                witnesses.append(ViolationWitness(
                    kind="Transitivity",
                    menus=(pq, qs, sp),
                    narrative=f"{p} >= {q} >= {s} but {s} strictly beats {p}"))
    return sort_witnesses(set(witnesses))


def social_monotonicity_by_fractions(dataset):
    witnesses = []
    for menu in dataset.menus():
        if len(menu) != 2:
            continue
        x, y = sorted(menu)
        px, py = dataset.payload(x), dataset.payload(y)
        winner = None
        if px.own >= py.own and px.other >= py.other and (px != py):
            winner = x
        elif py.own >= px.own and py.other >= px.other and (px != py):
            winner = y
        if winner is not None and dataset.observations[menu] != {winner}:
            witnesses.append(ViolationWitness(
                kind="SocialMonotonicity", menus=(menu,),
                narrative=f"{winner} dominates and must be the unique choice"))
    return witnesses


def pbdu_problems_by_fractions(dataset):
    """The shared-discount and the per-reference PBDU LPs in the order
    ``fit_pbdu`` tries them, with ``Fraction`` rows over 1."""
    amounts = sorted({dataset.payload(alt).amount for alt in dataset.universe})

    def reference(menu):
        return min(dataset.payload(alt).time for alt in menu)

    references = {menu: reference(menu) for menu in dataset.menus()}
    refs = sorted(set(references.values()) or {reference(m) for m in [dataset.universe] if m})
    lvar = {a: f"L[{format_rational(a)}]" for a in amounts}

    def build(dvar):
        problem = LinearFeasibilityProblem()
        for lo, hi in zip(amounts, amounts[1:]):
            problem.add({lvar[hi]: 1, lvar[lo]: -1}, ">", 0)
        for name in sorted({dvar(r) for r in refs}):
            problem.add({name: 1}, "<", 0)
        ordered = [dvar(r) for r in refs]
        for lo, hi in zip(ordered, ordered[1:]):
            if lo != hi:
                problem.add({hi: 1, lo: -1}, ">=", 0)
        for menu, ref in references.items():
            for relation, head, other in revealed_rows(dataset, menu):
                hp, op = dataset.payload(head), dataset.payload(other)
                coeffs = {lvar[hp.amount]: 1, dvar(ref): hp.time - op.time}
                coeffs[lvar[op.amount]] = coeffs.get(lvar[op.amount], 0) - 1
                problem.add(coeffs, relation, 0)
        return problem

    return [build(lambda r: "D[shared]"), build(lambda r: f"D[{format_rational(r)}]")]


def fspu_problems_by_fractions(dataset):
    """The shared-table and the per-reference FSPU LPs in the order
    ``fit_fspu`` tries them, with ``Fraction`` rows over 1 and one
    ``gini`` per menu member."""
    def reference(menu):
        return min(gini(dataset.payload(alt)) for alt in menu)

    references = {menu: reference(menu) for menu in dataset.menus()}
    refs = sorted(set(references.values()) or {reference(m) for m in [dataset.universe] if m})
    incomes = sorted({dataset.payload(alt).other for alt in dataset.universe})

    def build(var):
        problem = LinearFeasibilityProblem()
        for r in refs:
            for lo, hi in zip(incomes, incomes[1:]):
                problem.add({var(r, hi): 1, var(r, lo): -1}, ">", 0)
        for r_lo, r_hi in zip(refs, refs[1:]):
            for lo, hi in zip(incomes, incomes[1:]):
                coeffs = {}
                for name, weight in ((var(r_lo, hi), 1), (var(r_lo, lo), -1),
                                     (var(r_hi, hi), -1), (var(r_hi, lo), 1)):
                    coeffs[name] = coeffs.get(name, 0) + weight
                if any(coeffs.values()):
                    problem.add(coeffs, ">=", 0)
        for menu, ref in references.items():
            for relation, head, other in revealed_rows(dataset, menu):
                hs, os_ = dataset.payload(head), dataset.payload(other)
                coeffs = {var(ref, hs.other): 1}
                coeffs[var(ref, os_.other)] = coeffs.get(var(ref, os_.other), 0) - 1
                problem.add(coeffs, relation, os_.own - hs.own)
        return problem

    return [build(lambda r, y: f"v[shared][{format_rational(y)}]"),
            build(lambda r, y: f"v[{format_rational(r)}][{format_rational(y)}]")]


# -- the per-menu evaluators: the references for the models' choice rules -------
#
# Each menu is scored from scratch in Fractions, in the menu's iteration
# order, as the evaluators did before the rules scored each (reference,
# alternative) pair once on integers.


def evaluate_ordu_by_menu(params, menu):
    menu = frozenset(menu)
    missing = menu.difference(params.order.ranks)
    if missing:
        raise UnknownAlternative(f"{sorted(missing)} not covered by the order")
    return maximizers(menu, params.utility(params.order.argmax(menu)).__getitem__)


def evaluate_areu_by_menu(params, menu):
    menu = frozenset(menu)
    missing = menu.difference(params.order.ranks)
    if missing:
        raise UnknownLottery(f"{sorted(missing)} not covered by the order")
    u = params.utility(params.order.argmax(menu))
    return maximizers(menu, lambda alt: expected_utility(params.vector(alt), u))


def evaluate_pbdu_by_menu(params, payments):
    d = params.discount_log(min(p.time for p in payments.values()))
    return maximizers(payments, lambda alt: params.utility_log(payments[alt].amount)
                      + payments[alt].time * d)


def evaluate_fspu_by_menu(params, splits):
    ref = min(gini(s) for s in splits.values())
    return maximizers(splits, lambda alt: splits[alt].own
                      + params.value(ref, splits[alt].other))


# -- the JSON boundary by the standard library ----------------------------------

def rational_by_fraction(text):
    """``parse_rational`` of a string by ``Fraction(text)`` alone: the
    same value, or the same ValidationError.  The int digit limit refuses
    an exponent that passes it, whatever the value ("0e5000" too, since
    the parser will not build the power of ten), and a value with more
    digits than it, which ``str`` refuses to write."""
    try:
        value = F(text)
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > (sys.get_int_max_str_digits() or math.inf):
            raise ValueError(f"exponent {exponent} past the int digit limit")
        str(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}") from exc
    return value


def json_by_dumps(obj):
    """``to_json`` by the ``json`` module's own indented, key-sorted encoder."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- a dataset document read one check at a time ---------------------------------
#
# ``dataset_from_dict`` as it read a document before its one id scan, one
# conversion and one invariant pass: a call per array, the observations
# converted twice, then every invariant tested per observation.  The
# reference for each error, the order in which errors take precedence and
# the order of the observations.


def _ids_by_call(raw, what):
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise ValidationError(f"{what} {raw!r} is not an array of alternative ids")
    return raw


def dataset_by_ordered_reads(doc):
    """(id -> alternative, menu -> choice) of the dataset document ``doc``,
    or the first error met reading it in order."""
    try:
        kind = doc["kind"]
        alts = _alternatives_from_json(kind, doc["alternatives"])
        observations = [(_ids_by_call(obs["menu"], "menu"), _ids_by_call(obs["choice"], "choice"))
                        for obs in doc["observations"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed dataset document: {exc}") from exc
    floor = parse_rational(doc["floor"]) if "floor" in doc else None
    by_id = {}
    for alt in alts:
        if alt.id in by_id:
            raise ValidationError(f"duplicate alternative id {alt.id!r}")
        by_id[alt.id] = alt
    obs = {}
    for menu, choice in observations:
        key = frozenset(menu)
        if key in obs:
            raise DuplicateMenu(f"menu {sorted(key)} observed twice")
        obs[key] = frozenset(choice)
    want = KINDS.get(kind) if isinstance(kind, str) else None
    if want is None:
        raise ValidationError(f"unknown dataset kind {kind!r}")
    for alt in by_id.values():
        if not isinstance(alt.payload, want):
            raise MixedPayloadKinds(
                f"alternative {alt.id!r} has payload {type(alt.payload).__name__}, "
                f"dataset kind is {kind!r}")
    ids = frozenset(by_id)
    for menu, choice in obs.items():
        if not menu:
            raise ValidationError("empty menu")
        if not menu <= ids:
            raise ValidationError(f"menu {sorted(menu)} not contained in the universe")
        if not choice:
            raise EmptyChoice(f"menu {sorted(menu)} has an empty choice")
        if not choice <= menu:
            raise ChoiceOutsideMenu(
                f"choice {sorted(choice)} not contained in menu {sorted(menu)}")
    if kind == INCOME_SPLIT:
        floor = floor if floor is not None else F(0)
        if floor <= 0:
            raise ValidationError("income floor must be positive")
        for alt in by_id.values():
            if alt.payload.own < floor or alt.payload.other < floor:
                raise ValidationError(f"alternative {alt.id!r} pays below the floor {floor}")
    elif floor is not None:
        raise ValidationError(f"a floor applies only to {INCOME_SPLIT} data, not {kind}")
    return by_id, obs


# -- exact simplex oracle ----------------------------------------------------


def fraction_simplex_maximize(rows, objective):
    """Maximize ``objective . x`` s.t. ``rows`` (Ax <= b), x >= 0, by the
    dictionary simplex with Bland's rule on ``Fraction`` entries: the
    reference for ``feasibility._simplex_maximize``, which must take the
    same pivots and return the same (values, optimum), None when
    infeasible, or raise the same error on an unbounded objective."""
    n = len(objective)
    m = len(rows)
    # Dictionary: basic[i] = b[i] - sum_j a[i][j] * nonbasic_j
    a = [list(vec) for vec, _ in rows]
    b = [bound for _, bound in rows]
    c = list(objective)
    v = F(0)
    nonbasic = list(range(n))
    basic = list(range(n, n + m))

    def pivot(li, ei):
        # basic[li] leaves, nonbasic[ei] enters
        piv = a[li][ei]
        b[li] = b[li] / piv
        row = a[li]
        for j in range(n):
            row[j] = row[j] / piv
        row[ei] = F(1) / piv
        for i in range(m):
            if i == li:
                continue
            factor = a[i][ei]
            if factor == 0:
                continue
            b[i] -= factor * b[li]
            arow = a[i]
            for j in range(n):
                if j == ei:
                    arow[j] = -factor * row[j]
                else:
                    arow[j] -= factor * row[j]
        nonlocal v
        factor = c[ei]
        if factor != 0:
            v += factor * b[li]
            for j in range(n):
                if j == ei:
                    c[j] = -factor * row[j]
                else:
                    c[j] -= factor * row[j]
        basic[li], nonbasic[ei] = nonbasic[ei], basic[li]

    def run():
        nonlocal v
        while True:
            ei = None
            for j in sorted(range(n), key=lambda j: nonbasic[j]):
                if c[j] > 0:
                    ei = j
                    break
            if ei is None:
                return
            li = None
            best = None
            for i in range(m):
                if a[i][ei] > 0:
                    ratio = b[i] / a[i][ei]
                    if best is None or ratio < best or (
                            ratio == best and basic[i] < basic[li]):
                        best = ratio
                        li = i
            if li is None:
                raise RefdepError("unbounded objective in simplex")
            pivot(li, ei)

    if any(bound < 0 for bound in b):
        # Phase 1 with an auxiliary variable (id beyond slacks).
        aux = n + m
        n_aux = n + 1
        for row in a:
            row.append(F(-1))
        c_save = c
        c = [F(0)] * n + [F(-1)]
        nonbasic.append(aux)
        n, n_real = n_aux, n
        li = min(range(m), key=lambda i: (b[i], basic[i]))
        pivot(li, nonbasic.index(aux))
        run()
        if v != 0:
            return None
        if aux in basic:
            li = basic.index(aux)
            # Degenerate: pivot x0 out on any eligible column.
            ei = next(j for j in range(n) if a[li][j] != 0)
            pivot(li, ei)
        drop = nonbasic.index(aux)
        for row in a:
            del row[drop]
        del nonbasic[drop]
        n = n_real
        # Restore the real objective in terms of the current nonbasics.
        v = F(0)
        coef = {j: c_save[j] for j in range(len(c_save))}
        c = [F(0)] * n
        for pos, var in enumerate(nonbasic):
            if var < len(c_save):
                c[pos] += coef.get(var, F(0))
        for i, var in enumerate(basic):
            if var < len(c_save) and coef.get(var, F(0)) != 0:
                factor = coef[var]
                v += factor * b[i]
                for j in range(n):
                    c[j] -= factor * a[i][j]
    run()

    values = [F(0)] * len(objective)
    for i, var in enumerate(basic):
        if var < len(objective):
            values[var] = b[i]
    return values, v
