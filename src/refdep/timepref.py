"""Time domain: dated payments, stationarity machinery, discount fitting.

The fitted representation keeps one consumption utility and lets the
discount factor depend on the earliest arrival time in the menu.  To
stay exact, parameters live in additive form: L(x) stands for the log
of u(x) and D(r) for the log of the reference-r discount factor, both
rational, and all comparisons use t*D(r) + L(x) directly.  Decimal
delta values are derived for display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .choices import (
    ChoiceDataset,
    DATED_PAYMENT,
    FiniteProperty,
    PaymentPayload,
    ViolationWitness,
    WARP,
    conjoin,
    dominance_over,
    integer_payloads,
    invariance_over,
    linkage_report,
    mismatches,
    over_common_denominator,
    raise_first_failure,
    reference_rule,
    references_by_key,
    revealed_rows,
    shift_correspondences,
    simulate,
    sort_witnesses,
    warp_over,  # noqa: F401  bench/tracing.py wraps it here
)
from .engine import PsiMap, check_reference_dependence, lower_keys, witness_index
from .exceptions import (
    InfeasibleFit,
    UnknownAlternative,
    ValidationError,
)
from .feasibility import LinearFeasibilityProblem, solve_linear_feasibility
from .serialize import format_rational, parse_rational


# a payment is beaten by those arriving strictly earlier
EARLIEST_PSI = PsiMap("earliest-payments",
                      lambda dataset: lower_keys(integer_payloads(dataset)["time"][1]))
earliest_payments = EARLIEST_PSI.of  # the members arriving at the pool's earliest time


def _delays(dataset: ChoiceDataset) -> list:
    """The correspondences of a common positive delay, cached per dataset."""
    return shift_correspondences(dataset, "amount", "time", lambda d: d > 0, "delay")


def stationarity_over(dataset: ChoiceDataset, family) -> list:
    """Violations of choice invariance under a common positive delay."""
    return invariance_over(dataset, family, "Stationarity", _delays(dataset))


STATIONARITY = FiniteProperty("Stationarity", stationarity_over)
TIME_PROPERTY = conjoin(WARP, STATIONARITY)


def check_time_reference_dependence(dataset: ChoiceDataset) -> list:
    """WARP and Stationarity over every observed menu pair sharing an
    earliest payment (including each menu with itself)."""
    earliest = {m: EARLIEST_PSI.of(dataset, m) for m in dataset.observations}
    return sort_witnesses({w for w in witness_index(dataset, TIME_PROPERTY)
                           if frozenset.intersection(*(earliest[m] for m in w.menus))})


@dataclass(frozen=True)
class EquivalenceReport:
    status: str  # "agree" | "disagree" | "not_applicable"
    pairwise: tuple
    subset_form: tuple


def pairwise_anchored_equivalence(dataset: ChoiceDataset) -> EquivalenceReport:
    """Compare the pairwise axiom with the anchored subset-family form.

    Applicability requires subset-closed observations (every subset of two
    or more members of an observed menu observed); the two forms provably
    coincide when unions of observed menus are observed too (power-set
    designs).  Testing the subsets one member smaller suffices: they pass
    the same test, so by induction every smaller subset is observed.
    Other data report not_applicable.
    """
    observed = dataset.observations
    if any(menu - {x} not in observed for menu in observed if len(menu) > 2 for x in menu):
        return EquivalenceReport("not_applicable", (), ())
    pairwise = check_time_reference_dependence(dataset)
    # the anchored form: T's violations inside a menu whose every menu
    # keeps one of its earliest payments
    subset_form = sort_witnesses({
        w for failure in check_reference_dependence(
            dataset, TIME_PROPERTY, EARLIEST_PSI, universal=True)
        for _, blocking in failure.per_candidate for w in blocking})
    status = "agree" if bool(pairwise) == bool(subset_form) else "disagree"
    return EquivalenceReport(status, tuple(pairwise), tuple(subset_form))


def check_outcome_monotonicity_impatience(dataset: ChoiceDataset) -> list:
    """Binary menus: more money at the same time wins; same money sooner wins."""
    ints = integer_payloads(dataset)
    (_, amount), (_, time) = ints["amount"], ints["time"]

    def beats(x, y):
        return (time[x] == time[y] and amount[x] > amount[y]
                or amount[x] == amount[y] and time[x] < time[y])

    def describe(winner, loser):
        tag = "OutcomeMonotonicity" if time[winner] == time[loser] else "Impatience"
        return tag, f"{winner} should be the unique choice"

    return dominance_over(dataset, [m for m in dataset.menus() if len(m) == 2],
                          beats, describe)


def check_present_bias(dataset: ChoiceDataset) -> list:
    """Patience may only grow under a uniform delay, plus the scaled-menu
    indifference-propagation clause.

    Clause 1 reads the common-positive-delay correspondences that
    stationarity caches: it reports the doubletons {early, late} and
    {early2, late2}, each payment of the second the same amount delayed
    by the same positive time, when ``late`` alone is chosen before the
    delay and ``late2`` is not alone chosen after it.  Clause 2 pairs
    triples with distinct times whose members, in time order, pay the
    same amounts, the second's times ``scale * t + offset`` of the
    first's with 0 < scale < 1."""
    ints = integer_payloads(dataset)
    (_, amount), (time_den, time) = ints["amount"], ints["time"]
    observed = dataset.observations
    witnesses = []
    for late, early, late2, early2, _ in _delays(dataset):
        menu_a, menu_b = frozenset((early, late)), frozenset((early2, late2))
        if time[early] < time[late] and observed.get(menu_a) == {late} \
                and menu_b in observed and observed[menu_b] != {late2}:
            delay = Fraction(time[late2] - time[late], time_den)
            witnesses.append(ViolationWitness(
                kind="PresentBias",
                menus=(menu_a, menu_b),
                narrative=(f"the later option {late} wins, but after delaying "
                           f"both by {format_rational(delay)} it no longer does"),
            ))
    lines = {menu: sorted(menu, key=time.__getitem__) for menu in dataset.menus()
             if len(menu) == 3 and len({time[alt] for alt in menu}) == 3}
    for menu_a, (a0, a1, a2) in lines.items():
        if observed[menu_a] != menu_a:
            continue
        span_a = time[a2] - time[a0]
        for menu_b, (b0, b1, b2) in lines.items():
            if menu_b == menu_a or (amount[a0], amount[a1], amount[a2]) \
                    != (amount[b0], amount[b1], amount[b2]):
                continue
            # scale = span_b / span_a, and the middle times must match
            span_b = time[b2] - time[b0]
            if not 0 < span_b < span_a \
                    or (time[b1] - time[b0]) * span_a != (time[a1] - time[a0]) * span_b:
                continue
            picked = observed[menu_b]
            if b0 in picked and b2 in picked and b1 not in picked:
                witnesses.append(ViolationWitness(
                    kind="PresentBias",
                    menus=(menu_a, menu_b),
                    narrative=("indifference among all three did not carry the "
                               "middle option through the time rescaling"),
                ))
    return sort_witnesses(set(witnesses))


def battery(dataset: ChoiceDataset):
    """The PBDU axioms as (check key, axiom name, witnesses), in fit order."""
    yield ("outcome_monotonicity_impatience", "outcome monotonicity / impatience",
           check_outcome_monotonicity_impatience(dataset))
    yield ("time_reference_dependence", "time reference dependence",
           check_time_reference_dependence(dataset))
    yield "present_bias", "present bias", check_present_bias(dataset)


# -- parameters -------------------------------------------------------------


@dataclass(frozen=True)
class PbduParams:
    """Log-form parameters: L = log-utility per amount, D = log-discount
    per reference time, all exact rationals."""

    log_utility: tuple   # tuple[(amount, L)], amounts ascending, L strictly up
    log_discount: tuple  # tuple[(time, D)], times ascending, D nondecreasing, < 0

    def __post_init__(self):
        amounts = [a for a, _ in self.log_utility]
        if amounts != sorted(amounts) or len(set(amounts)) != len(amounts):
            raise ValidationError("amount grid must be strictly sorted")
        values = [v for _, v in self.log_utility]
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise ValidationError("log-utility must be strictly increasing")
        if not self.log_discount:
            raise ValidationError("log-discount table must not be empty")
        times = [t for t, _ in self.log_discount]
        if times != sorted(times) or len(set(times)) != len(times):
            raise ValidationError("time grid must be strictly sorted")
        discounts = [v for _, v in self.log_discount]
        if any(discounts[i] > discounts[i + 1] for i in range(len(discounts) - 1)):
            raise ValidationError("log-discount must be nondecreasing in time")
        if any(v >= 0 for v in discounts):
            raise ValidationError("log-discounts must be negative")

    def utility_log(self, amount) -> Fraction:
        for a, v in self.log_utility:
            if a == amount:
                return v
        raise UnknownAlternative(f"amount {amount} outside the fitted grid")

    def discount_log(self, ref_time) -> Fraction:
        # Step extension: reference times between grid points inherit the
        # value of the largest fitted time below them.
        below = [v for t, v in self.log_discount if t <= ref_time]
        if below:
            return below[-1]
        return self.log_discount[0][1]

    def display_deltas(self) -> dict:
        """Decimal approximations of the discount factors (non-normative)."""
        return {format_rational(t): math.exp(float(v))
                for t, v in self.log_discount}

    def to_json(self) -> dict:
        return {
            "log_utility": {format_rational(a): format_rational(v)
                            for a, v in self.log_utility},
            "log_discount": {format_rational(t): format_rational(v)
                             for t, v in self.log_discount},
            "display_deltas_approx": self.display_deltas(),
        }

    @staticmethod
    def from_json(doc) -> "PbduParams":
        return PbduParams(
            tuple(sorted((parse_rational(a), parse_rational(v))
                         for a, v in doc["log_utility"].items())),
            tuple(sorted((parse_rational(t), parse_rational(v))
                         for t, v in doc["log_discount"].items())),
        )


def _rule(params: PbduParams, payloads: dict):
    """``choose(menu)`` over ``payloads`` (id -> PaymentPayload): the
    maximizers of t*D(r) + L(x), r the menu's earliest time, on integers."""
    time_den, (times,) = over_common_denominator([[p.time for p in payloads.values()]])
    times = dict(zip(payloads, times))
    den = math.lcm(*(v.denominator for table in (params.log_utility, params.log_discount)
                     for _, v in table))

    def scaled(value):
        return value.numerator * (den // value.denominator)

    def score(ref, alt):
        discount = scaled(params.discount_log(Fraction(ref, time_den)))
        return times[alt] * discount + scaled(params.utility_log(payloads[alt].amount)) * time_den

    return reference_rule(lambda members: min(map(times.__getitem__, members)), score)


def evaluate_pbdu(params: PbduParams, payments: dict) -> frozenset:
    """``payments`` maps ids to PaymentPayload; returns the chosen ids."""
    return _rule(params, payments)(payments)


def simulate_pbdu(params: PbduParams, alternatives, menus) -> ChoiceDataset:
    """The dataset choosing from each of ``menus`` by one rule."""
    alts = {a.id: a for a in alternatives}
    return simulate(DATED_PAYMENT, alts.values(), menus,
                    _rule(params, {alt: a.payload for alt, a in alts.items()}))


def verify_pbdu(params: PbduParams, dataset: ChoiceDataset) -> list:
    """``mismatches`` of one rule built for the whole dataset."""
    return mismatches(dataset, _rule(params, {
        alt: a.payload for alt, a in dataset.alternatives.items()}))


def fit_pbdu(dataset: ChoiceDataset) -> PbduParams:
    """One exact feasibility system for the whole dataset.

    Menu with reference time r, chosen (x,t) against member (y,s):
    t*D(r) + L(x) >= s*D(r) + L(y), strict when (y,s) is unchosen, an
    equality when both are chosen; plus L strictly increasing, D
    nondecreasing and negative.
    """
    if dataset.kind != DATED_PAYMENT:
        raise ValidationError("fit_pbdu needs a dated-payment dataset")
    if not dataset.universe:
        raise ValidationError("fit_pbdu needs at least one payment; the universe is empty")
    raise_first_failure(battery(dataset))
    ints = integer_payloads(dataset)
    (amount_den, amount_of), (time_den, time_of) = ints["amount"], ints["time"]
    amounts = sorted(set(amount_of.values()))
    references, refs = references_by_key(dataset, time_of.__getitem__)
    amount = {a: Fraction(a, amount_den) for a in amounts}
    time = {r: Fraction(r, time_den) for r in refs}
    lvar = {a: f"L[{format_rational(amount[a])}]" for a in amounts}

    def build(dvar):
        # every row times the time denominator T: integer rows over T
        problem = LinearFeasibilityProblem(denominator=time_den)
        for lo, hi in zip(amounts, amounts[1:]):
            problem.add({lvar[hi]: time_den, lvar[lo]: -time_den}, ">", 0)
        for name in sorted({dvar(r) for r in refs}):
            problem.add({name: time_den}, "<", 0)
        ordered = [dvar(r) for r in refs]
        for lo, hi in zip(ordered, ordered[1:]):
            if lo != hi:
                problem.add({hi: time_den, lo: -time_den}, ">=", 0)
        for menu, ref in references.items():
            for relation, head, other in revealed_rows(dataset, menu):
                coeffs = {lvar[amount_of[head]]: time_den,
                          dvar(ref): time_of[head] - time_of[other]}
                low = lvar[amount_of[other]]
                coeffs[low] = coeffs.get(low, 0) - time_den
                problem.add(coeffs, relation, 0)
        return problem

    # a single discount first: classical data stays classical; a lone
    # amount is in no row, and any log-utility serves it
    per_ref = {r: f"D[{format_rational(time[r])}]" for r in refs}
    for dvar in (lambda r: "D[shared]", per_ref.__getitem__):
        result = solve_linear_feasibility(build(dvar))
        if result:
            return PbduParams(
                tuple((amount[a], result.assignment.get(lvar[a], 0)) for a in amounts),
                tuple((time[r], result.assignment[dvar(r)]) for r in refs))
    raise InfeasibleFit("no log-utility / log-discount system fits the data")


def single_switching_check(params: PbduParams, earlier: PaymentPayload,
                           later: PaymentPayload, shifts) -> list:
    """Simulate the binary choice under each postponement and demand the
    pattern earlier* (tie)? later*: one switch, never back."""
    if not (earlier.amount < later.amount and earlier.time < later.time):
        raise ValidationError("need a smaller-sooner vs larger-later pair")
    sequence = []
    for shift in sorted(Fraction(s) for s in shifts):
        menu = {
            "early": PaymentPayload(earlier.amount, earlier.time + shift),
            "late": PaymentPayload(later.amount, later.time + shift),
        }
        picked = evaluate_pbdu(params, menu)
        sequence.append((shift, "both" if len(picked) == 2
                         else ("early" if "early" in picked else "late")))
    witnesses = []
    state = 0  # 0: earlier phase, 1: tie seen, 2: later phase
    for shift, verdict in sequence:
        if verdict == "early":
            if state > 0:
                witnesses.append(ViolationWitness(
                    kind="SingleSwitching", menus=(),
                    narrative=f"switched back to the earlier option at shift "
                              f"{format_rational(shift)}"))
            continue
        if verdict == "both":
            if state == 2:
                witnesses.append(ViolationWitness(
                    kind="SingleSwitching", menus=(),
                    narrative=f"tie after the switch at shift "
                              f"{format_rational(shift)}"))
            state = max(state, 1)
            continue
        state = 2
    return witnesses


def linkage_report_time(dataset: ChoiceDataset) -> dict:
    return linkage_report(dataset, stationarity=STATIONARITY)
