"""Walkthrough: the common-ratio pattern as changing risk aversion.

The classic pair of binary choices (the sure 3000 over the 4000 gamble,
but the diluted gamble over the diluted sure thing) contradicts any
single expected utility.  With the reference order anchored at the
safest available lottery it becomes two utilities related by a concave
transform, and the same mechanism predicts a WARP violation once a
third option joins the menu.
"""

from fractions import Fraction as F

from refdep import (
    AreuParams,
    ReferenceOrder,
    fit_areu,
    independence_over,
    least_risky,
    simulate_areu,
    verify_areu,
    warp_over,
)
from refdep.choices import Alternative, LOTTERY, LotteryPayload, validate_dataset
from refdep.exceptions import InfeasibleFit


def lot(pairs):
    return LotteryPayload(tuple((F(x), F(p)) for x, p in pairs))


lotteries = {
    "sure3000": lot([(3000, 1)]),
    "gamble":   lot([(4000, F(4, 5)), (0, F(1, 5))]),
    "sure_dil": lot([(3000, F(1, 4)), (0, F(3, 4))]),
    "gamb_dil": lot([(4000, F(1, 5)), (0, F(4, 5))]),
}
alts = [Alternative(k, v) for k, v in lotteries.items()]
menu_a = frozenset(("sure3000", "gamble"))
menu_b = frozenset(("sure_dil", "gamb_dil"))
data = validate_dataset(LOTTERY, alts, [(menu_a, {"sure3000"}),
                                        (menu_b, {"gamb_dil"})])

print("least risky in each menu:")
print("  A:", sorted(least_risky(data, menu_a)))
print("  B:", sorted(least_risky(data, menu_b)))

print("\nindependence violations across the two menus:",
      len(independence_over(data, data.menus())))

params = fit_areu(data)
ua = params.utility(params.order.argmax(menu_a))
ub = params.utility(params.order.argmax(menu_b))
print("\nfitted reference order:", " > ".join(params.order.ranking))
print(f"u_A(3000) = {ua[1]}   (must exceed 4/5)")
print(f"u_B(3000) = {ub[1]}   (must fall below 4/5)")
print("replay exact:", verify_areu(params, data) == [])

print("\nthe reversed pattern has no representation:")
flipped = validate_dataset(LOTTERY, alts, [(menu_a, {"gamble"}),
                                           (menu_b, {"sure_dil"})])
try:
    fit_areu(flipped)
    print("  unexpectedly feasible")
except InfeasibleFit as exc:
    print(" ", exc)

# The non-binary prediction: with interior lotteries, making the sure
# prize available steepens the utility and flips a binary ranking.
prizes = (F(0), F(3000), F(4000))
triple_lots = {
    "safe": (F(0), F(1), F(0)),
    "mid":  (F(1, 10), F(7, 10), F(2, 10)),
    "wide": (F(3, 10), F(3, 10), F(4, 10)),
}
pred = AreuParams.build(
    prizes, triple_lots, ReferenceOrder(("safe", "mid", "wide")),
    {"safe": (F(0), F(3, 5), F(1)),
     "mid": (F(0), F(2, 5), F(1)),
     "wide": (F(0), F(2, 5), F(1))})
triple = frozenset(triple_lots)
pair = frozenset(("mid", "wide"))
sim = simulate_areu(pred, [triple, pair])
print("\nnon-binary prediction:")
print("  c({safe,mid,wide}) =", sorted(sim.observations[triple]))
print("  c({mid,wide})      =", sorted(sim.observations[pair]))
print("  WARP violations:", len(warp_over(sim, sim.menus())))
