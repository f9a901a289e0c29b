import copy
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
    sorted_menus,
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
from refdep.risk import (
    independence_over,
    least_risky,
    prize_grid,
)
from refdep.rivals import load_fixture
from refdep.serialize import dataset_from_dict, dataset_to_dict, menus_from_dict
from refdep.social import quasilinearity_over
from refdep.timepref import stationarity_over

from helpers import (
    areu_data,
    dataset_by_ordered_reads,
    fspu_data,
    generic_dataset,
    lot,
    member_masks,
    ordu_data,
    pbdu_data,
    perturbed,
    restrict,
)


def test_compliance_table_is_valid_with_eleven_menus():
    ds = load_fixture("compliance_2_1")
    assert len(ds.observations) == 11
    assert ds.universe == frozenset("abcd")


def test_singleton_observation_is_valid():
    ds = generic_dataset([("a", "a")])
    assert ds.observations[frozenset("a")] == frozenset("a")


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


def test_a_zero_mass_prize_does_not_widen_the_grid():
    """A prize listed with zero mass is dropped when the payload is built,
    so a dataset built in Python has the prize grid and least risky sets
    of its JSON round trip."""
    p = LotteryPayload(((F(3), F(3, 8)), (F(1), F(1, 8)), (F(2), F(1, 2))))
    q = LotteryPayload(((F(0), F(0)), (F(2), F(1))))
    ds = validate_dataset(LOTTERY, [Alternative("p", p), Alternative("q", q)],
                          [(frozenset("pq"), frozenset("q"))])
    again = dataset_from_dict(dataset_to_dict(ds))
    assert prize_grid(ds) == prize_grid(again) == (1, 2, 3)
    assert p.probs == ((1, F(1, 8)), (2, F(1, 2)), (3, F(3, 8))) and q.probs == ((2, 1),)
    for menu, safest in (("pq", "q"), ("p", "p"), ("q", "q")):
        assert least_risky(ds, frozenset(menu)) == least_risky(again, frozenset(menu)) \
            == frozenset(safest)
    listed = dataset_from_dict({"kind": "lottery", "observations": [], "alternatives": [
        {"id": "a", "payload": {"probs": {"1": "1/2", "1.0": "0", "2": "1/2"}}}]})
    assert listed.payload("a").probs == ((1, F(1, 2)), (2, F(1, 2)))


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
    restricted = restrict(ds, family)
    assert len(restricted.observations) == 7
    assert restricted.universe == ds.universe


def test_restrict_identity_and_empty():
    ds = load_fixture("compliance_2_1")
    assert restrict(ds, ds.menus()).same_observations(ds)
    assert restrict(ds, []).observations == {}


LOCAL_PROPERTIES = {
    "WARP": (warp_over, ordu_data),
    "Independence": (independence_over, areu_data),
    "Stationarity": (stationarity_over, pbdu_data),
    "Quasi-linearity": (quasilinearity_over, fspu_data),
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


# -- the one-walk reader against the ordered reads -----------------------------

_NOT_ARRAYS = ({}, {"menu": ["a"]}, "ab", "", None, 0)
_NOT_IDS = (1, None, ["a"], True, {"a": "a"}, 0.5)
_FLOORS = ("0", "-1", "x", 0.5, "1/2", "1", "3", "6", "100", True, None)
_KINDS = ("generic", "lottery", "dated_payment", "income_split", "foo", ["foo"], None)


def _objects(doc, key):
    """The entries of ``doc[key]`` that are still objects."""
    entries = doc.get(key) if isinstance(doc, dict) else None
    return [e for e in entries if isinstance(e, dict)] if isinstance(entries, list) else []


def _plant(rng, doc, payloads):
    """Plant one fault in ``doc``, in place; False when the one drawn has
    no place left to go."""
    observations, alternatives = _objects(doc, "observations"), _objects(doc, "alternatives")
    obs = rng.choice(observations) if observations else None
    key = rng.choice(["menu", "choice"])
    array = obs.get(key) if obs is not None else None
    fault = rng.randrange(14)
    if fault == 0:  # a missing top-level key
        return doc.pop(rng.choice(["kind", "alternatives", "observations", "floor"]), 0) != 0
    if obs is None and fault < 9:
        return False
    if fault == 1:  # a missing observation key
        return obs.pop(key, 0) != 0
    if fault == 2:  # an object, string or null in place of an observation's array
        obs[key] = rng.choice(_NOT_ARRAYS)
    elif fault == 3:  # ... or of the observation itself
        doc["observations"][doc["observations"].index(obs)] = rng.choice(_NOT_ARRAYS[1:])
    elif fault == 4:  # a non-string id
        if not isinstance(array, list):
            return False
        obs[key] = [*array, rng.choice(_NOT_IDS)]
        rng.shuffle(obs[key])
    elif fault == 5:  # an empty menu or choice
        obs[key] = []
    elif fault == 6:  # a menu observed twice, its ids in another order
        menus = [o["menu"] for o in observations if isinstance(o.get("menu"), list)]
        if not menus:
            return False
        menu = rng.choice(menus)
        obs["menu"] = rng.sample(menu, len(menu))
    elif fault == 7:  # an undeclared id, or an id repeated within the array
        if not isinstance(array, list) or not array:
            return False
        obs[key] = [*array, rng.choice(["zz", array[0]])]
    elif fault == 8:  # a chosen id outside the menu
        menu = obs.get("menu")
        ids = [a.get("id") for a in alternatives]
        outside = [x for x in ids if isinstance(menu, list) and x not in menu]
        obs["choice"] = [*(array if key == "choice" and isinstance(array, list) else []),
                         rng.choice(outside or ["zz"])]
    elif fault == 9:  # a payload of another kind, or none
        if not alternatives:
            return False
        alt = rng.choice(alternatives)
        alt["payload"] = rng.choice(payloads)
    elif fault == 10:  # another kind
        if not isinstance(doc, dict):
            return False
        doc["kind"] = rng.choice(_KINDS)
    elif fault == 11:  # a bad floor
        doc["floor"] = rng.choice(_FLOORS)
    elif fault == 12:  # an id given twice, or not a string
        if not alternatives:
            return False
        rng.choice(alternatives)["id"] = rng.choice(
            [rng.choice(alternatives).get("id"), 7, None])
    else:  # the observations in another order
        if not isinstance(doc.get("observations"), list):
            return False
        rng.shuffle(doc["observations"])
    return True


def _by_one_walk(doc):
    ds = dataset_from_dict(doc)
    lattice = ds.lattice()
    return (list(ds.alternatives.items()), list(ds.observations.items()), lattice.menus,
            list(lattice.contain.items()), list(lattice.chosen.items()))


def _by_ordered_reads(doc):
    by_id, observations = dataset_by_ordered_reads(doc)
    menus = tuple(sorted_menus(observations))
    return (list(by_id.items()), list(observations.items()), menus,
            list(member_masks(menus).items()),
            list(member_masks(observations[m] for m in menus).items()))


# a phrase of each error a document can meet, in the order they are met
_FAULTS = ("malformed dataset document", "is not an array of alternative ids",
           "bad rational literal", "duplicate alternative id", "observed twice",
           "unknown dataset kind", "empty menu", "not contained in the universe",
           "has an empty choice", "not contained in menu", "income floor must be positive",
           "pays below the floor", "a floor applies only")


def _outcome(read, doc):
    try:
        return read(doc)
    except Exception as exc:
        return type(exc), str(exc)


def test_the_one_walk_reads_mutated_documents_as_the_ordered_reads_do():
    """Each of 2,400 documents mutated from valid data of all four kinds
    (one to three planted faults, or none) gives the same error, or the
    same alternatives, observations in order and lattice masks in key
    order, whichever reader reads it."""
    rng = random.Random(83)
    bases = [dataset_to_dict(perturbed(rng, make(rng)))
             for make in (ordu_data, areu_data, pbdu_data, fspu_data) for _ in range(3)]
    payloads = [None, {}, {"probs": {"0": "1"}}, {"amount": "5", "time": "1"},
                {"own": "2", "other": "3"}, {"amount": "x"}, "p"]
    seen = {}
    for _ in range(2_400):
        doc = copy.deepcopy(rng.choice(bases))
        rng.shuffle(doc["observations"])
        faults = rng.choice([0, 1, 1, 2, 2, 3])
        while faults:
            faults -= _plant(rng, doc, payloads)
        outcome = _outcome(_by_ordered_reads, doc)
        assert _outcome(_by_one_walk, doc) == outcome, doc
        fault = next((f for f in _FAULTS if f in outcome[1]), outcome[1]) \
            if isinstance(outcome[0], type) else "read"
        seen[fault] = seen.get(fault, 0) + 1
    assert min(seen.get(fault, 0) for fault in ("read", *_FAULTS)) >= 5, seen
