"""Exact reference evaluators, written apart from refdep.

The benchmark makes its observations and checks refdep's outputs with
these functions only, so an edit to refdep or to its tests cannot change
what the benchmark feeds in or what it accepts.  Every quantity is a
``fractions.Fraction``; menus are frozensets of alternative ids.
"""

from fractions import Fraction

ZERO = Fraction(0)


def argmax_set(menu, score):
    """All members of ``menu`` with the highest score."""
    scores = {x: score(x) for x in menu}
    best = max(scores.values())
    return frozenset(x for x, s in scores.items() if s == best)


def top_of(ranking, menu):
    """The highest-ranked member of ``menu``; ``ranking`` lists best first."""
    for x in ranking:
        if x in menu:
            return x
    raise KeyError(f"menu {sorted(menu)} is not covered by the ranking")


# -- the four models ---------------------------------------------------------


def choose_ordu(ranking, tables, menu):
    """Ordered-reference utility: maximize the utility of the menu's top."""
    table = tables[top_of(ranking, menu)]
    return argmax_set(menu, lambda x: table[x])


def expected_utility(vec, u):
    return sum((p * x for p, x in zip(vec, u)), ZERO)


def choose_areu(ranking, vectors, utilities, menu):
    """Reference-dependent expected utility on probability vectors."""
    u = utilities[top_of(ranking, menu)]
    return argmax_set(menu, lambda x: expected_utility(vectors[x], u))


def choose_pbdu(log_utility, log_discount, payments, menu):
    """Log-form discounting: the reference is the menu's earliest time.

    ``log_discount`` maps reference times to D; a time between fitted
    times takes the value of the largest fitted time below it, and one
    below every fitted time takes the first value.
    """
    ref = min(payments[x][1] for x in menu)
    below = [d for t, d in sorted(log_discount.items()) if t <= ref]
    d = below[-1] if below else sorted(log_discount.items())[0][1]
    return argmax_set(menu, lambda x: log_utility[payments[x][0]] + payments[x][1] * d)


def gini(own, other):
    return abs(own - other) / (2 * (own + other))


def choose_fspu(tables, splits, menu):
    """Sharing utility indexed by the menu's lowest attainable Gini."""
    ref = min(gini(*splits[x]) for x in menu)
    table = tables[ref]
    return argmax_set(menu, lambda x: splits[x][0] + table[splits[x][1]])


# -- risk orders on a prize grid ---------------------------------------------


def mean_preserving_spread(prizes, p, q):
    """p is a mean-preserving spread of q (p != q)."""
    if p == q:
        return False
    if expected_utility(p, prizes) != expected_utility(q, prizes):
        return False
    fp = fq = acc = ZERO
    for i in range(len(prizes) - 1):
        fp += p[i]
        fq += q[i]
        acc += (fp - fq) * (prizes[i + 1] - prizes[i])
        if acc < 0:
            return False
    return True


def extreme_spread(p, q):
    """p = beta*q + (1-beta)*(best/worst bet with best weight alpha),
    beta in [0, 1), alpha strictly inside (q(best), 1 - q(worst))."""
    interior = range(1, len(p) - 1)
    beta = next((p[i] / q[i] for i in interior if q[i] != 0), ZERO)
    if not 0 <= beta < 1:
        return False
    if any(p[i] != beta * q[i] for i in interior):
        return False
    alpha = (p[-1] - beta * q[-1]) / (1 - beta)
    if not q[-1] < alpha < 1 - q[0]:
        return False
    return p[0] == beta * q[0] + (1 - beta) * (1 - alpha)


def worst_dilution(p, q):
    """p = beta*q + (1-beta)*(worst prize for sure), beta in [0, 1), p != q."""
    if p == q:
        return False
    beta = next((p[i] / q[i] for i in range(1, len(p)) if q[i] != 0), None)
    if beta is None or not 0 <= beta < 1:
        return False
    if any(p[i] != beta * q[i] for i in range(1, len(p))):
        return False
    return p[0] == beta * q[0] + (1 - beta)


def riskier(prizes, p, q):
    return mean_preserving_spread(prizes, p, q) or extreme_spread(p, q)


def safety_edges(prizes, vectors):
    """(safer, riskier) pairs any admissible reference order must respect."""
    names = sorted(vectors)
    return {(q, p) for p in names for q in names if p != q
            and (riskier(prizes, vectors[p], vectors[q])
                 or worst_dilution(vectors[p], vectors[q]))}


def topological(names, edges, prefer=None):
    """Total order respecting (above, below) edges; ties by name, except
    that ``prefer`` goes first whenever it is free."""
    above = {n: {a for a, b in edges if b == n} for n in names}
    ranking, remaining = [], set(names)
    while remaining:
        ready = sorted(n for n in remaining if not above[n] & remaining)
        head = prefer if prefer in ready else ready[0]
        ranking.append(head)
        remaining.discard(head)
    return ranking


def rho_vector(u):
    """Interior gap ratios (u_i - u_{i-1}) / (u_{i+1} - u_{i-1})."""
    return tuple((u[i] - u[i - 1]) / (u[i + 1] - u[i - 1]) for i in range(1, len(u) - 1))


# -- axioms ------------------------------------------------------------------


def warp_pairs(observations):
    """(big, small) observed pairs, small strictly inside big, where
    c(big) meets small but c(big) & small != c(small)."""
    out = set()
    for big, c_big in observations.items():
        for small, c_small in observations.items():
            if small < big and (c_big & small) and (c_big & small) != c_small:
                out.add((big, small))
    return out
