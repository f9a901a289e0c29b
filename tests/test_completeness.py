"""Soundness and completeness of the fitters on model-generated data.

Each model's own validation is the only filter on the drawn parameters.
Data simulated from them must fit, and the fit must reproduce the data.
"""

import random

from helpers import (
    all_menus,
    random_ordu_params,
    random_valid_areu,
    random_valid_fspu,
    random_valid_pbdu,
)
from refdep.ordu import build_ordu, simulate_ordu, verify_ordu
from refdep.risk import fit_areu, simulate_areu, verify_areu
from refdep.social import fit_fspu, simulate_fspu, verify_fspu
from refdep.timepref import fit_pbdu, simulate_pbdu, verify_pbdu


def test_every_valid_three_prize_areu_parameter_set_fits():
    # on 3 prizes InfeasibleFit is a proof, so data from any parameters
    # validate accepts must fit
    fitted = 0
    for seed in range(2000):
        params = random_valid_areu(random.Random(seed))
        if params is None:
            continue
        dataset = simulate_areu(params, all_menus(params.order.ranking, 2, 3))
        assert verify_areu(fit_areu(dataset), dataset) == [], seed
        fitted += 1
    assert fitted > 100


def test_pbdu_fspu_and_ordu_fits_reproduce_their_data():
    for seed in range(300):
        drawn = random_valid_pbdu(random.Random(seed))
        if drawn is not None:
            params, payments = drawn
            dataset = simulate_pbdu(params, payments, all_menus([p.id for p in payments], 2, 3))
            assert verify_pbdu(fit_pbdu(dataset), dataset) == [], seed

        params, splits = random_valid_fspu(random.Random(seed))
        dataset = simulate_fspu(params, splits, all_menus([s.id for s in splits], 2, 3))
        assert verify_fspu(fit_fspu(dataset), dataset) == [], seed

    for seed in range(300):
        params = random_ordu_params(random.Random(seed))
        for max_size in (None, 3):
            dataset = simulate_ordu(params, all_menus(params.order.ranking, 2, max_size))
            assert verify_ordu(build_ordu(dataset), dataset) == [], (seed, max_size)
