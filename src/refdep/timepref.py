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
    invariance_over,
    linkage_report,
    mismatches,
    raise_first_failure,
    shift_correspondences,
    sort_witnesses,
    warp_over,  # noqa: F401  bench/tracing.py wraps it here
)
from .engine import PsiMap, psi_table, witness_index
from .exceptions import (
    InfeasibleFit,
    NotSubsetClosed,
    UnknownAlternative,
    ValidationError,
)
from .feasibility import LinearFeasibilityProblem, solve_linear_feasibility
from .ordu import check_subset_closed
from .serialize import format_rational, parse_rational

_ZERO = Fraction(0)


def earliest_payments(dataset: ChoiceDataset, menu) -> frozenset:
    """Members arriving at the menu's minimal time."""
    menu = sorted(menu)
    soonest = min(dataset.payload(x).time for x in menu)
    return frozenset(x for x in menu if dataset.payload(x).time == soonest)


EARLIEST_PSI = PsiMap("earliest-payments", earliest_payments)


def stationarity_over(dataset: ChoiceDataset, family) -> list:
    """Violations of choice invariance under a common positive delay."""
    delays = shift_correspondences(dataset, "amount", "time", lambda d: d > 0, "delay")
    return invariance_over(dataset, family, "Stationarity", delays)


STATIONARITY = FiniteProperty("Stationarity", stationarity_over)
TIME_PROPERTY = conjoin(WARP, STATIONARITY)


def check_time_reference_dependence(dataset: ChoiceDataset) -> list:
    """WARP and Stationarity over every observed menu pair sharing an
    earliest payment (including each menu with itself)."""
    earliest = psi_table(dataset, EARLIEST_PSI)
    return sort_witnesses({w for w, _, _ in witness_index(dataset, TIME_PROPERTY)
                           if len(set(w.menus)) <= 2
                           and frozenset.intersection(*(earliest[m] for m in w.menus))})


@dataclass(frozen=True)
class EquivalenceReport:
    status: str  # "agree" | "disagree" | "not_applicable"
    pairwise: tuple
    subset_form: tuple


def pairwise_anchored_equivalence(dataset: ChoiceDataset) -> EquivalenceReport:
    """Compare the pairwise axiom with the anchored subset-family form.

    Applicability requires subset-closed observations; the two forms
    provably coincide when unions of observed menus are observed too
    (power-set designs).  Non-subset-closed data reports not_applicable.
    """
    try:
        check_subset_closed(dataset)
    except NotSubsetClosed:
        return EquivalenceReport("not_applicable", (), ())
    pairwise = check_time_reference_dependence(dataset)
    # a witness of the family of (menu, anchor) lies inside the menu and
    # keeps the anchor, an earliest payment of the menu, in all its menus
    earliest = psi_table(dataset, EARLIEST_PSI)
    subset_form = sort_witnesses({
        w for w, union, meet in witness_index(dataset, TIME_PROPERTY)
        if any(union <= menu and anchors & meet for menu, anchors in earliest.items())})
    status = "agree" if bool(pairwise) == bool(subset_form) else "disagree"
    return EquivalenceReport(status, tuple(pairwise), tuple(subset_form))


def check_outcome_monotonicity_impatience(dataset: ChoiceDataset) -> list:
    """Binary menus: more money at the same time wins; same money sooner wins."""
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


def check_present_bias(dataset: ChoiceDataset) -> list:
    """Patience may only grow under a uniform delay, plus the scaled-menu
    indifference-propagation clause."""
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
    triples = [m for m in menus if len(m) == 3]
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


def evaluate_pbdu(params: PbduParams, payments: dict) -> frozenset:
    """``payments`` maps ids to PaymentPayload; returns the chosen ids."""
    ref = min(p.time for p in payments.values())
    d = params.discount_log(ref)
    scores = {alt: params.utility_log(p.amount) + p.time * d
              for alt, p in payments.items()}
    best = max(scores.values())
    return frozenset(alt for alt, s in scores.items() if s == best)


def simulate_pbdu(params: PbduParams, alternatives, menus) -> ChoiceDataset:
    alts = {a.id: a for a in alternatives}
    observations = {}
    for menu in menus:
        menu = frozenset(menu)
        observations[menu] = evaluate_pbdu(
            params, {alt: alts[alt].payload for alt in menu})
    return ChoiceDataset(DATED_PAYMENT, alts, observations)


def verify_pbdu(params: PbduParams, dataset: ChoiceDataset) -> list:
    return mismatches(dataset, lambda menu: evaluate_pbdu(
        params, {alt: dataset.payload(alt) for alt in menu}))


def standing_assumption(dataset: ChoiceDataset):
    """True/False for the best-late-vs-worst-now doubleton when observed,
    None when that menu never appears."""
    amounts = [dataset.payload(alt).amount for alt in dataset.universe]
    times = [dataset.payload(alt).time for alt in dataset.universe]
    lo_now = [alt for alt in dataset.universe
              if dataset.payload(alt).amount == min(amounts)
              and dataset.payload(alt).time == min(times)]
    hi_late = [alt for alt in dataset.universe
               if dataset.payload(alt).amount == max(amounts)
               and dataset.payload(alt).time == max(times)]
    for a in lo_now:
        for b in hi_late:
            menu = frozenset((a, b))
            if menu in dataset.observations:
                return b in dataset.observations[menu]
    return None


def fit_pbdu(dataset: ChoiceDataset) -> PbduParams:
    """One exact feasibility system for the whole dataset.

    Menu with reference time r, chosen (x,t) against member (y,s):
    t*D(r) + L(x) >= s*D(r) + L(y), strict when (y,s) is unchosen, an
    equality when both are chosen; plus L strictly increasing, D
    nondecreasing and negative.
    """
    if dataset.kind != DATED_PAYMENT:
        raise ValidationError("fit_pbdu needs a dated-payment dataset")
    raise_first_failure(battery(dataset))
    amounts = sorted({dataset.payload(alt).amount for alt in dataset.universe})
    refs = sorted({min(dataset.payload(alt).time for alt in menu)
                   for menu in dataset.menus()})
    lvar = {a: f"L[{format_rational(a)}]" for a in amounts}

    def build(dvar):
        problem = LinearFeasibilityProblem()
        for lo, hi in zip(amounts, amounts[1:]):
            problem.add({lvar[hi]: 1, lvar[lo]: -1}, ">", 0)
        seen = sorted({dvar(r) for r in refs})
        for name in seen:
            problem.add({name: 1}, "<", 0)
        ordered = [dvar(r) for r in refs]
        for lo, hi in zip(ordered, ordered[1:]):
            if lo != hi:
                problem.add({hi: 1, lo: -1}, ">=", 0)
        for menu in dataset.menus():
            ref = min(dataset.payload(alt).time for alt in menu)
            picked = sorted(dataset.observations[menu])
            head = picked[0]
            hp = dataset.payload(head)
            for other in sorted(menu):
                if other == head:
                    continue
                op = dataset.payload(other)
                coeffs = {}
                coeffs[lvar[hp.amount]] = coeffs.get(lvar[hp.amount], _ZERO) + 1
                coeffs[lvar[op.amount]] = coeffs.get(lvar[op.amount], _ZERO) - 1
                coeffs[dvar(ref)] = coeffs.get(dvar(ref), _ZERO) + hp.time - op.time
                coeffs = {k: v for k, v in coeffs.items() if v != 0}
                relation = "=" if other in dataset.observations[menu] else ">"
                problem.add(coeffs, relation, 0)
        return problem

    # a single discount first: classical data stays classical
    result = solve_linear_feasibility(build(lambda r: "D[shared]"))
    if not result:
        result = solve_linear_feasibility(
            build(lambda r: f"D[{format_rational(r)}]"))
        if not result:
            raise InfeasibleFit("no log-utility / log-discount system fits the data")
        discount = tuple((r, result.assignment[f"D[{format_rational(r)}]"])
                         for r in refs)
    else:
        discount = tuple((r, result.assignment["D[shared]"]) for r in refs)
    log_utility = tuple((a, result.assignment[lvar[a]]) for a in amounts)
    return PbduParams(log_utility, discount)


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
