"""The JSON boundary against the standard library: ``parse_rational`` of a
string against ``Fraction(str)``, ``to_json`` against ``json.dumps``."""

import sys
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from refdep.exceptions import ValidationError
from refdep.serialize import parse_rational, to_json

from helpers import json_by_dumps, rational_by_fraction


def _outcome(parse, text):
    try:
        value = parse(text)
    except ValidationError as exc:
        return "refused", str(exc)
    return type(value), value


def _assert_parsed_alike(text):
    assert _outcome(parse_rational, text) == _outcome(rational_by_fraction, text), text


EXPLICIT = ["0", "-0", "+0", "007", "-007/0014", "0/7", "-0/7", "12/35", "-7/9",
            "1/0", "-5/0", "0/0", "1/00", " 1/2", "1/2 ", "\t-3\n", "1_000", "1/1_0",
            "1__0", "_1", "٣", "٣/٤", "1/٤", "²", "0.8", "-1.5e3",
            "1e-3", "1E2", "1e", "+3", "+3/4", "", "-", "+", "/", "1/", "/2", "1//2",
            "1/-2", "1/+2", "--1", "-+1", "nan", "inf", "1.", ".5", "1.5/2", "1/2.5",
            "0x10", "1 / 2", "- 1"]

_DIGITS = st.text("0123456789", min_size=1, max_size=25)
_SHAPED = st.builds("{}{}{}".format, st.sampled_from(["", "-", "+", "--"]), _DIGITS,
                    st.one_of(st.just(""), _DIGITS.map("/{}".format)))
_DECIMAL = st.builds("{}{}.{}{}".format, st.sampled_from(["", "-", "+"]),
                     st.text("0123456789", max_size=6), st.text("0123456789", max_size=6),
                     st.one_of(st.just(""), st.integers(-40, 40).map("e{}".format)))
_DRESSED = st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t", "\n"]), _SHAPED,
                     st.sampled_from(["", " ", "\n"]))
# at most six characters, so an exponent stays below 10**9999
_NOISE = st.text("0123456789-+/._eE ٣²", max_size=6)


@pytest.mark.parametrize("text", EXPLICIT)
def test_the_literal_parser_agrees_with_fraction_on_chosen_literals(text):
    _assert_parsed_alike(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_SHAPED, _DECIMAL, _DRESSED, _NOISE))
def test_the_literal_parser_agrees_with_fraction(text):
    _assert_parsed_alike(text)


def _around_the_limit(limit):
    """Literals with ``limit`` digits in a part, and with one more."""
    at, past = "7" * limit, "7" * (limit + 1)
    return [at, "-" + at, at + "/3", "-3/" + at, f"{at}/{at}", "0" * limit,
            past, "-" + past, past + "/2", "2/" + past, "-2/" + past,
            "0" * limit + "1", "1" + "0" * limit + "/1" + "0" * limit,
            "0." + at, "0." + past, at[1:] + ".5", f"1e{limit}", f"1e{limit + 1}",
            f"0e{limit}", f"0e{limit + 1}", f"0e-{limit + 1}", f"1e-{limit}"]


def _assert_the_limit_holds(limit):
    literals = _around_the_limit(limit)
    outcomes = [_outcome(parse_rational, text) for text in literals]
    assert outcomes == [_outcome(rational_by_fraction, text) for text in literals]
    assert outcomes[0] == (F, F(int("7" * limit)))
    assert outcomes[6] == ("refused", f"bad rational literal {'7' * (limit + 1)!r}")


def test_literals_at_and_past_the_int_digit_limit():
    _assert_the_limit_holds(sys.get_int_max_str_digits() or 4300)


def test_literals_at_and_past_a_lowered_int_digit_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        _assert_the_limit_holds(640)
    finally:
        sys.set_int_max_str_digits(before)


def test_non_strings_keep_their_rules():
    assert parse_rational(F(3, 4)) == F(3, 4) and parse_rational(-2) == F(-2)
    for bad in (True, 0.5):
        with pytest.raises(ValidationError):
            parse_rational(bad)


_TEXT = st.one_of(st.text(max_size=10),
                  st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", " ", "é",
                                   "\U0001f600", "</script>", ""]))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 4299, 10 ** 4299), st.floats(), _TEXT)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_the_writer_matches_json_dumps(doc):
    assert to_json(doc) == json_by_dumps(doc)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.dictionaries(st.one_of(st.integers(), st.floats()), _LEAVES, max_size=5),
                 st.dictionaries(st.booleans(), _LEAVES),
                 st.dictionaries(st.none(), _LEAVES)))
def test_the_writer_converts_keys_as_json_does(doc):
    assert to_json(doc) == json_by_dumps(doc)


class _Rank(IntEnum):
    TOP = 1


def test_the_writer_takes_subclasses_as_json_does():
    pair = namedtuple("pair", "first second")
    for doc in (OrderedDict([("z", _Rank.TOP), ("a", pair("x", 2.5))]),
                {_Rank.TOP: [True], 0: None}):
        assert to_json(doc) == json_by_dumps(doc)


@pytest.mark.parametrize("bad", [F(1, 2), {1, 2}, {"a": [F(1)]}, [set()], object(),
                                 {(1, 2): 3}, {"a": 1, 2: 3}],
                         ids=["fraction", "set", "nested-fraction", "nested-set", "object",
                              "tuple-key", "mixed-keys"])
def test_the_writer_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError) as ours:
        to_json(bad)
    with pytest.raises(TypeError) as theirs:
        json_by_dumps(bad)
    assert str(ours.value) == str(theirs.value)


def test_an_int_past_the_digit_limit_is_refused_by_both():
    for write in (to_json, json_by_dumps):
        with pytest.raises(ValueError):
            write({"n": [10 ** 5000]})
