import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from refdep.choices import (
    Alternative,
    GENERIC,
    LOTTERY,
    LotteryPayload,
    validate_dataset,
    warp_over,
)
from refdep.exceptions import (
    ChoiceOutsideMenu,
    DuplicateMenu,
    EmptyChoice,
    MixedPayloadKinds,
    UnobservedMenu,
    ValidationError,
)
from refdep.risk import betweenness_over, independence_over, transitivity_over
from refdep.rivals import load_fixture
from refdep.serialize import dataset_from_dict, menus_from_dict
from refdep.social import quasilinearity_over
from refdep.timepref import stationarity_over

from helpers import (
    areu_data,
    fspu_data,
    generic_dataset,
    lot,
    ordu_data,
    pbdu_data,
    perturbed,
)


def test_compliance_table_is_valid_with_eleven_menus():
    ds = load_fixture("compliance_2_1")
    assert len(ds.observations) == 11
    assert ds.universe == frozenset("abcd")


def test_singleton_observation_is_valid():
    ds = generic_dataset([("a", "a")])
    assert ds.choice(frozenset("a")) == frozenset("a")


def test_empty_choice_rejected():
    with pytest.raises(EmptyChoice):
        validate_dataset(GENERIC, [Alternative("a"), Alternative("b")],
                         [(frozenset("ab"), frozenset())])


def test_choice_outside_menu_rejected():
    with pytest.raises(ChoiceOutsideMenu):
        validate_dataset(GENERIC, [Alternative("a"), Alternative("b")],
                         [(frozenset("a"), frozenset("b"))])


def test_duplicate_menu_rejected():
    with pytest.raises(DuplicateMenu):
        validate_dataset(GENERIC, [Alternative("a"), Alternative("b")],
                         [(("a", "b"), ("a",)), (("b", "a"), ("b",))])


@pytest.mark.parametrize("probs", [((0, F(-1, 2)), (2, F(3, 2))), ((0, F(1, 2)), (2, F(1, 4)))],
                         ids=["negative", "mass-deficient"])
def test_lottery_probabilities_are_checked_when_the_payload_is_built(probs):
    with pytest.raises(ValidationError, match="must be >= 0 and sum to 1"):
        validate_dataset(LOTTERY, [Alternative("a", LotteryPayload(probs)),
                                   Alternative("b", lot([(1, 1)]))],
                         [(frozenset("ab"), frozenset("a"))])


def test_a_lottery_listing_a_prize_twice_is_rejected():
    """prob(1) would read only the first pair and drop the second's mass."""
    with pytest.raises(ValidationError, match="each prize once"):
        LotteryPayload(((F(1), F(1, 2)), (F(1), F(1, 2))))
    with pytest.raises(ValidationError, match="each prize once"):
        dataset_from_dict({"kind": "lottery",
                           "alternatives": [{"id": "a", "payload": {"probs": {"1": "1/2",
                                                                              "1.0": "1/2"}}}],
                           "observations": []})


def test_a_menus_file_repeating_an_id_is_rejected():
    """As in a dataset file: a repeated id would keep only its last payload."""
    doc = {"kind": "dated_payment", "menus": [["a", "b"]],
           "alternatives": [{"id": "a", "payload": {"amount": "1", "time": "0"}},
                            {"id": "b", "payload": {"amount": "2", "time": "1"}},
                            {"id": "a", "payload": {"amount": "3", "time": "2"}}]}
    with pytest.raises(ValidationError, match="duplicate alternative id 'a'"):
        menus_from_dict(doc)
    with pytest.raises(ValidationError, match="duplicate alternative id 'a'"):
        dataset_from_dict({**doc, "observations": []})


@pytest.mark.parametrize("kind, payload", [
    ("dated_payment", {"amount": "1", "time": "0"}),
    ("lottery", {"probs": {"0": "1"}}),
    ("generic", None)])
def test_a_floor_outside_income_split_data_is_rejected(kind, payload):
    """A floor binds only splits; elsewhere it would be written back unchecked."""
    alts = [{"id": "a", **({"payload": payload} if payload else {})}]
    doc = {"kind": kind, "alternatives": alts, "floor": "-5"}
    with pytest.raises(ValidationError, match=f"a floor applies only to income_split .*{kind}"):
        dataset_from_dict({**doc, "observations": [{"menu": ["a"], "choice": ["a"]}]})
    with pytest.raises(ValidationError, match=f"a floor applies only to income_split .*{kind}"):
        menus_from_dict({**doc, "menus": [["a"]]})


def test_mixed_payload_kinds_rejected():
    with pytest.raises(MixedPayloadKinds):
        validate_dataset(LOTTERY,
                         [Alternative("p", lot([(0, 1)])), Alternative("q")],
                         [(frozenset("pq"), frozenset("p"))])


def test_warp_passes_on_menus_containing_the_anchor():
    ds = load_fixture("compliance_2_1")
    family = [m for m in ds.menus() if "a" in m]
    assert warp_over(ds, family) == []


def test_warp_finds_the_three_violations_of_the_compliance_table():
    ds = load_fixture("compliance_2_1")
    witnesses = warp_over(ds, ds.menus())
    pairs = {frozenset(frozenset(x) for x in w.menus) for w in witnesses}
    assert pairs == {
        frozenset({frozenset("abcd"), frozenset("bcd")}),
        frozenset({frozenset("bcd"), frozenset("bc")}),
        frozenset({frozenset("acd"), frozenset("cd")}),
    }


def test_warp_on_single_menu_family_is_vacuous():
    ds = load_fixture("compliance_2_1")
    assert warp_over(ds, [frozenset("abcd")]) == []


def test_warp_requires_observed_family():
    ds = load_fixture("violation_2_1")
    with pytest.raises(UnobservedMenu):
        warp_over(ds, [frozenset("abz")])


def test_warp_witness_replay_reproduces_the_failure():
    ds = load_fixture("compliance_2_1")
    for witness in warp_over(ds, ds.menus()):
        assert warp_over(ds, list(witness.menus)) != []


def test_restrict_to_menus_containing_a_keeps_seven():
    ds = load_fixture("compliance_2_1")
    family = [m for m in ds.menus() if "a" in m]
    assert len(family) == 7
    restricted = ds.restrict(family)
    assert len(restricted.observations) == 7
    assert restricted.universe == ds.universe


def test_restrict_identity_and_empty():
    ds = load_fixture("compliance_2_1")
    assert ds.restrict(ds.menus()).same_observations(ds)
    assert ds.restrict([]).observations == {}


LOCAL_PROPERTIES = {
    "WARP": (warp_over, ordu_data),
    "Independence": (independence_over, areu_data),
    "Stationarity": (stationarity_over, pbdu_data),
    "Quasi-linearity": (quasilinearity_over, fspu_data),
    "Betweenness": (betweenness_over, areu_data),
    "Transitivity": (transitivity_over, areu_data),
}


@pytest.mark.parametrize("name", sorted(LOCAL_PROPERTIES))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_property_is_local_under_family_restriction(name, seed):
    prop, make = LOCAL_PROPERTIES[name]
    rng = random.Random(seed)
    ds = perturbed(rng, make(rng))
    menus = ds.menus()
    everywhere = prop(ds, menus)
    for keep in (0.2, 0.5, 0.8):
        family = [m for m in menus if rng.random() < keep]
        assert prop(ds, family) == [w for w in everywhere if set(w.menus) <= set(family)]


def test_witness_ordering_is_deterministic():
    ds = load_fixture("compliance_2_1")
    first = warp_over(ds, ds.menus())
    second = warp_over(ds, ds.menus())
    assert first == second
    keys = [w.sort_key() for w in first]
    assert keys == sorted(keys)


def test_a_witness_is_frozen_whether_or_not_its_narrative_was_read():
    ds = load_fixture("compliance_2_1")
    for read in (False, True):
        witness = warp_over(ds, ds.menus())[0]
        if read:
            assert witness.narrative
        key = hash(witness)
        for name in ("kind", "menus", "narrative"):
            with pytest.raises(FrozenInstanceError):
                setattr(witness, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(witness, name)
        assert hash(witness) == key and witness == warp_over(ds, ds.menus())[0]
