"""Seeded instance generators for the benchmark.

Each generator draws model parameters from a ``random.Random`` and
returns an ``Instance``: the model's parameters in refdep's params-file
format, a dataset document and a menus document in refdep's wire format,
and the observations that ``oracle`` computes from the parameters.  Only
the benchmark's own code runs here, so the inputs do not depend on
refdep.  The ``*_probe`` generators follow the designs of acceptance
criteria 6 and 11: a planted pattern makes WARP and the domain's
structural axiom fail together exactly when ``distinct`` is true.
"""

from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

import oracle


@dataclass
class Instance:
    model: str            # ordu | areu | pbdu | fspu
    distinct: bool        # reference-dependent parameters
    params: dict          # refdep params-file document
    dataset: dict         # refdep dataset document
    menus_doc: dict       # refdep menus-file document (same menus)
    observations: dict    # frozenset menu -> frozenset choice


def rat(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def all_menus(ids, lo, hi):
    ids = sorted(ids)
    return [frozenset(c) for size in range(lo, hi + 1) for c in combinations(ids, size)]


def sample_menus(rng, ids, counts):
    """``counts[size]`` menus of each size, drawn without replacement; a
    fixed count per size keeps the work per dataset alike across seeds."""
    out = []
    for size, count in sorted(counts.items()):
        out += sorted(rng.sample(all_menus(ids, size, size), count), key=sorted)
    return out


def fraction_between(rng, lo, hi, denom=24):
    lo, hi = F(lo), F(hi)
    return lo + (hi - lo) * F(rng.randint(1, denom - 1), denom)


def _instance(model, distinct, params, kind, payloads, menus, choose, floor=None):
    """``payloads`` maps every alternative id to its payload document, or
    to None for generic alternatives."""
    observations = {m: choose(m) for m in menus}
    alternatives = [{"id": x, **({"payload": p} if p is not None else {})}
                    for x, p in sorted(payloads.items())]
    extra = {"floor": rat(floor)} if floor is not None else {}
    dataset = {"kind": kind, "alternatives": alternatives, **extra,
               "observations": [{"menu": sorted(m), "choice": sorted(observations[m])}
                                for m in menus]}
    menus_doc = {"kind": kind, "alternatives": alternatives, **extra,
                 "menus": [sorted(m) for m in menus]}
    return Instance(model, distinct, params, dataset, menus_doc, observations)


# -- generic alternatives (ORDU) ---------------------------------------------


def ordu(rng, n, distinct, lo=2):
    """All menus of sizes lo..n over n alternatives.  Distinct parameters
    plant a reversal: the top reference prefers c to d, while c, the
    reference of {c, d}, prefers d."""
    ids = [f"a{i}" for i in range(n)]
    ranking = ids[:]
    rng.shuffle(ranking)
    base = {x: F(rng.randint(0, 6)) for x in ids}
    if distinct:
        tables = {r: {x: F(rng.randint(0, 6)) for x in ids} for r in ids}
        top, c, d = ranking[:3]
        tables[top][c], tables[top][d] = F(8), F(7)
        tables[c][d], tables[c][c] = F(8), F(0)
    else:
        tables = {r: dict(base) for r in ids}
    params = {"order": ranking,
              "utilities": {r: {x: rat(v) for x, v in t.items()} for r, t in tables.items()}}

    def choose(menu):
        return oracle.choose_ordu(ranking, tables, menu)
    return _instance("ordu", distinct, params, "generic", dict.fromkeys(ids),
                     all_menus(ids, lo, n), choose)


# -- lotteries (AREU) ----------------------------------------------------------


def _lottery_instance(distinct, prizes, vectors, ranking, utilities, menus):
    payloads = {x: {"probs": {rat(z): rat(p) for z, p in zip(prizes, v) if p != 0}}
                for x, v in vectors.items()}
    params = {"prizes": [rat(z) for z in prizes],
              "lotteries": {x: [rat(p) for p in v] for x, v in vectors.items()},
              "order": ranking,
              "utilities": {x: [rat(p) for p in u] for x, u in utilities.items()}}

    def choose(menu):
        return oracle.choose_areu(ranking, vectors, utilities, menu)
    return _instance("areu", distinct, params, "lottery", payloads, menus, choose)


def _random_vector(rng):
    denom = rng.choice([3, 4, 5, 6])
    cut1 = rng.randint(0, denom)
    cut2 = rng.randint(0, denom - cut1)
    return (F(cut1, denom), F(cut2, denom), F(denom - cut1 - cut2, denom))


def areu_random(rng, n, distinct, menu_counts):
    """n random lotteries on a 3-prize grid; utilities weakly more concave
    up a risk-consistent reference order (one utility when not distinct)."""
    w, m, b = sorted(rng.sample([0, 1, 2, 4, 7, 11], 3))
    prizes = (F(w), F(m), F(b))
    while True:
        vectors = {}
        while len(vectors) < n:
            vec = _random_vector(rng)
            if vec not in vectors.values():
                vectors[f"l{len(vectors)}"] = vec
        if all(any(v[i] for v in vectors.values()) for i in range(3)):
            break
    ranking = oracle.topological(sorted(vectors), oracle.safety_edges(prizes, vectors))
    if distinct:
        levels = sorted({fraction_between(rng, F(1, 20), F(19, 20), 40) for _ in ranking},
                        reverse=True)
        levels += [levels[-1]] * (len(ranking) - len(levels))
    else:
        levels = [fraction_between(rng, F(1, 20), F(19, 20), 40)] * len(ranking)
    utilities = {x: (F(0), levels[i], F(1)) for i, x in enumerate(ranking)}
    menus = sample_menus(rng, vectors, menu_counts)
    return _lottery_instance(distinct, prizes, vectors, ranking, utilities, menus)


def areu_probe(rng, distinct):
    """Acceptance criterion 6's design without noise lotteries: an anchor
    (the sure middle prize), a probe pair whose ranking flips between the
    anchor's utility and the others', and their half-mixtures with the
    anchor; all menus of 2-4."""
    w, m, b = sorted(rng.sample([0, 1, 2, 3, 5, 8, 13], 3))
    prizes = (F(w), F(m), F(b))
    neutral = F(m - w, b - w)
    v_hi = fraction_between(rng, neutral + F(1, 50), F(24, 25))
    v_lo = fraction_between(rng, F(1, 50), v_hi - F(1, 50))
    gamma = fraction_between(rng, F(1, 10), F(9, 10), 12)
    eta = (v_lo + gamma * (1 - v_lo) + v_hi + gamma * (1 - v_hi)) / 2
    half = F(1, 2)
    anchor = (F(0), F(1), F(0))
    probe_hi = (F(0), 1 - gamma, gamma)
    probe_lo = (1 - eta, F(0), eta)
    vectors = {
        "anchor": anchor,
        "probe_hi": probe_hi,
        "probe_lo": probe_lo,
        "mix_hi": tuple(half * x + half * s for x, s in zip(probe_hi, anchor)),
        "mix_lo": tuple(half * x + half * s for x, s in zip(probe_lo, anchor)),
    }
    ranking = oracle.topological(sorted(vectors), oracle.safety_edges(prizes, vectors),
                                 prefer="anchor")
    u_hi = (F(0), v_hi, F(1))
    u_lo = (F(0), v_lo, F(1)) if distinct else u_hi
    utilities = {x: (u_hi if x == "anchor" else u_lo) for x in ranking}
    return _lottery_instance(distinct, prizes, vectors, ranking, utilities,
                             all_menus(vectors, 2, 4))


# -- dated payments (PBDU) -----------------------------------------------------


def _payment_instance(distinct, payments, log_utility, log_discount, menus):
    payloads = {x: {"amount": rat(a), "time": rat(t)} for x, (a, t) in payments.items()}
    params = {"log_utility": {rat(a): rat(v) for a, v in log_utility.items()},
              "log_discount": {rat(t): rat(v) for t, v in log_discount.items()}}

    def choose(menu):
        return oracle.choose_pbdu(log_utility, log_discount, payments, menu)
    return _instance("pbdu", distinct, params, "dated_payment", payloads, menus, choose)


def pbdu_grid(rng, distinct, menu_counts):
    """A 3 amounts x 3 times grid of payments; the log-discount rises with
    the reference time when distinct and is shared otherwise."""
    amounts = sorted(rng.sample(range(10, 40), 3))
    times = sorted(rng.sample(range(0, 8), 3))
    payments = {f"p{a}_{t}": (F(a), F(t)) for a in amounts for t in times}
    log_utility, level = {}, F(rng.randint(0, 3))
    for a in amounts:
        level += F(rng.randint(1, 8), 4)
        log_utility[F(a)] = level
    d = -F(rng.randint(2, 9), 8)
    log_discount = {}
    for t in times:
        log_discount[F(t)] = d
        if distinct:
            d = min(d + F(rng.randint(1, 3), 16), -F(1, 16))
    menus = sample_menus(rng, payments, menu_counts)
    return _payment_instance(distinct, payments, log_utility, log_discount, menus)


def pbdu_probe(rng, distinct):
    """Five payments holding the canonical reversal: x at 0 against y at 1,
    and the same pair delayed by t; all menus of 2-4."""
    x = rng.randint(10, 14)
    y = x + rng.randint(1, 4)
    t = rng.randint(2, 4)
    d0 = -F(rng.randint(5, 9), 2)
    dt = d0 + (F(rng.randint(1, 4), 2) if distinct else 0)
    ly = F(rng.randint(0, 3))
    lx = ly + (d0 + dt) / 2
    w = x - rng.randint(1, 3)
    lw = lx + t * d0 - 1
    log_utility = {F(w): lw, F(x): lx, F(y): ly}
    log_discount = {F(0): d0, F(1): d0, F(t): dt, F(t + 1): dt}
    payments = {"w0": (F(w), F(0)), "x0": (F(x), F(0)), "y1": (F(y), F(1)),
                "xt": (F(x), F(t)), "yt1": (F(y), F(t + 1))}
    return _payment_instance(distinct, payments, log_utility, log_discount,
                             all_menus(payments, 2, 4))


# -- income splits (FSPU) -------------------------------------------------------


def _split_instance(distinct, splits, tables, menus):
    floor = F(1)
    payloads = {x: {"own": rat(o), "other": rat(y)} for x, (o, y) in splits.items()}
    params = {"tables": {rat(r): {rat(y): rat(v) for y, v in t.items()}
                         for r, t in tables.items()}}

    def choose(menu):
        return oracle.choose_fspu(tables, splits, menu)
    return _instance("fspu", distinct, params, "income_split", payloads, menus, choose,
                     floor=floor)


def _sharing_tables(splits, increments, scale):
    """One table per attainable Gini level; ``scale(rank)`` multiplies every
    increment at the rank-th most balanced level (nonincreasing in rank)."""
    incomes = sorted({y for _, y in splits.values()})
    refs = sorted({oracle.gini(o, y) for o, y in splits.values()})
    tables = {}
    for rank, r in enumerate(refs):
        table = {incomes[0]: F(0)}
        for lo, hi in zip(incomes, incomes[1:]):
            table[hi] = table[lo] + increments(lo, hi) * scale(rank, r)
        tables[r] = table
    return tables


def fspu_grid(rng, distinct, menu_counts):
    """Twelve splits: four recipient incomes, three own payments each.
    Sharing increments shrink as the attainable Gini rises when distinct."""
    others = sorted(rng.sample(range(1, 9), 4))
    splits = {}
    for y in others:
        for own in sorted(rng.sample(range(1, 15), 3)):
            splits[f"s{own}_{y}"] = (F(own), F(y))
    base = {y: F(rng.randint(1, 8), 4) for y in others}
    n_refs = len({oracle.gini(o, y) for o, y in splits.values()})
    factors = sorted((F(rng.randint(1, 12), 4) for _ in range(n_refs)), reverse=True)
    tables = _sharing_tables(
        splits, lambda lo, hi: base[hi],
        (lambda rank, r: factors[rank]) if distinct else (lambda rank, r: F(1)))
    menus = sample_menus(rng, splits, menu_counts)
    return _split_instance(distinct, splits, tables, menus)


def fspu_probe(rng, distinct):
    """Five splits with the sharing flip: the generous probe wins exactly
    when the balanced split is attainable; all menus of 2-3."""
    y_hi = rng.randint(4, 6)
    y_lo = rng.randint(2, y_hi - 1)
    x = rng.randint(2 * y_hi, 2 * y_hi + 4)
    shift = rng.randint(1, 3)
    scale = F(rng.randint(2, 5))
    m0 = rng.randint(1, 2)
    splits = {
        "balanced": (F(m0), F(m0)),
        "share_more": (F(x), F(y_hi)),
        "share_less": (F(x) + scale, F(y_lo)),
        "share_more_shift": (F(x + shift), F(y_hi)),
        "share_less_shift": (F(x + shift) + scale, F(y_lo)),
    }
    per_unit = scale / (y_hi - y_lo)
    tables = _sharing_tables(
        splits, lambda lo, hi: (hi - lo) * per_unit,
        lambda rank, r: F(1, 2) if (distinct and r > 0) else F(2))
    return _split_instance(distinct, splits, tables, all_menus(splits, 2, 3))
