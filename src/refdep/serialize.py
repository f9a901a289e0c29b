"""JSON wire formats: datasets, menus files, fitted parameters.

Rationals travel as strings and are parsed exactly.  The shapes this
module writes, "n", "-n", "n/d" and "-n/d" in ASCII digits, are read as
integers directly; any other string goes to ``fractions.Fraction``
(decimals such as "0.8", exponents, whitespace, underscores).  ``to_json``
writes the bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` plus a
newline, so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import INFINITY, encode_basestring_ascii as _quote

from .choices import (
    Alternative,
    ChoiceDataset,
    GENERIC,
    INCOME_SPLIT,
    LotteryPayload,
    PaymentPayload,
    SplitPayload,
    alternatives_by_id,
    first_repeat,
    payload_class,
    sorted_menus,
    validate_dataset,
)
from .exceptions import DuplicateMenu, ValidationError


def parse_rational(text) -> Fraction:
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isdigit() and digits.isascii() and (
                not slash or den.isdigit() and den.isascii()):
            try:  # int() refuses more digits than the int digit limit
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"bad rational literal {text!r}") from exc
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValidationError(f"refusing boolean {text!r} as a rational")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValidationError(f"refusing float {text!r}; pass a string for exactness")
    literal, limit = str(text), sys.get_int_max_str_digits() or float("inf")
    try:
        _, e, exponent = literal.lower().rpartition("e")
        shift = abs(int(exponent)) if e else 0  # the value has <= len(literal) + shift digits
        if shift > limit:  # refused before 10**shift is built
            raise ValueError
        value = Fraction(literal)
        if len(literal) + shift > limit:
            str(value)  # a ValueError past the limit
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}") from exc
    return value


def format_rational(value: Fraction) -> str:
    """``str(Fraction(value))`` for a Fraction or an int."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def _payload_from_json(kind, raw):
    want = payload_class(kind)
    if kind == GENERIC:
        if raw not in (None, {}):
            raise ValidationError("generic alternatives carry no payload")
        return None
    if raw is None:
        raise ValidationError(f"{kind} alternatives need a payload")
    if want is LotteryPayload:
        return LotteryPayload(tuple((parse_rational(x), parse_rational(p))
                                    for x, p in raw["probs"].items()))
    if want is PaymentPayload:
        return PaymentPayload(parse_rational(raw["amount"]), parse_rational(raw["time"]))
    return SplitPayload(parse_rational(raw["own"]), parse_rational(raw["other"]))


def _payload_to_json(payload):
    if isinstance(payload, LotteryPayload):
        return {"probs": {format_rational(x): format_rational(p)
                          for x, p in payload.probs}}
    if isinstance(payload, PaymentPayload):
        return {"amount": format_rational(payload.amount),
                "time": format_rational(payload.time)}
    return {"own": format_rational(payload.own),
            "other": format_rational(payload.other)}


def _alternatives_from_json(kind, raw):
    alts = []
    for a in raw:
        if not isinstance(a["id"], str):
            raise ValidationError(f"alternative id {a['id']!r} is not a string")
        alts.append(Alternative(a["id"], _payload_from_json(kind, a.get("payload"))))
    return alts


def ids_from_json(raw, what):
    """A menu, choice or order: an array of alternative ids, not a bare
    string or an object."""
    if not _all_ids([raw]):
        raise ValidationError(f"{what} {raw!r} is not an array of alternative ids")
    return raw


def _all_ids(arrays: list) -> bool:
    """Whether each of ``arrays`` is an array of alternative ids, in one
    scan over them all; ``ids_from_json`` names the first that is not."""
    return all(map(isinstance, arrays, repeat(list))) \
        and all(map(isinstance, chain.from_iterable(arrays), repeat(str)))


def _observations_from_json(raw) -> list:
    """Each observation's (menu, choice), both arrays of alternative ids.
    One scan checks them all.  Only when it or a key lookup fails does
    the ordered walk run, to name the first fault: earlier observations
    first, a menu before its choice, a bad array before a later missing
    key."""
    rows = list(raw)  # walked twice when a fault is met
    try:
        pairs = [(obs["menu"], obs["choice"]) for obs in rows]
        if _all_ids(list(chain.from_iterable(pairs))):
            return pairs
    except (KeyError, TypeError, AttributeError):
        pass
    return [(ids_from_json(obs["menu"], "menu"), ids_from_json(obs["choice"], "choice"))
            for obs in rows]


def dataset_from_dict(doc) -> ChoiceDataset:
    try:
        kind = doc["kind"]
        alts = _alternatives_from_json(kind, doc["alternatives"])
        observations = _observations_from_json(doc["observations"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed dataset document: {exc}") from exc
    floor = parse_rational(doc["floor"]) if "floor" in doc else None
    return validate_dataset(kind, alts, observations, floor=floor)


def dataset_to_dict(ds: ChoiceDataset) -> dict:
    doc = {
        "kind": ds.kind,
        "alternatives": [
            {"id": alt_id, **({"payload": _payload_to_json(alt.payload)}
                              if alt.payload is not None else {})}
            for alt_id, alt in sorted(ds.alternatives.items())
        ],
        "observations": [
            {"menu": sorted(menu), "choice": sorted(ds.observations[menu])}
            for menu in sorted_menus(ds.observations)
        ],
    }
    if ds.floor is not None:
        doc["floor"] = format_rational(ds.floor)
    return doc


def read_json(fh):
    """The JSON document in the open file ``fh``.  Malformed JSON, text
    the file's encoding cannot decode and a number past Python's limit on
    the digits of an int (all ValueErrors) are a ValidationError."""
    try:
        return json.load(fh)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def load_dataset(path) -> ChoiceDataset:
    with open(path) as fh:
        return dataset_from_dict(read_json(fh))


def menus_from_dict(doc):
    """A menus file: a dataset document listing each menu once under "menus"."""
    try:
        kind = doc["kind"]
        payload_class(kind)
        alts = _alternatives_from_json(kind, doc["alternatives"])
        menus = doc["menus"]
        if not (isinstance(menus, list) and _all_ids(menus)):
            menus = [ids_from_json(m, "menu") for m in menus]
        menus = list(map(frozenset, menus))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed menus document: {exc}") from exc
    by_id = alternatives_by_id(alts)
    for menu in menus:
        if not menu:
            raise ValidationError("empty menu in menus file")
        if not menu <= by_id.keys():
            raise ValidationError(f"menu {sorted(menu)} uses undeclared ids")
    if len(set(menus)) < len(menus):
        raise DuplicateMenu(f"menu {sorted(first_repeat(menus))} listed twice")
    floor = parse_rational(doc["floor"]) if "floor" in doc else None
    if floor is not None and kind != INCOME_SPLIT:
        raise ValidationError(f"a floor applies only to {INCOME_SPLIT} menus, not {kind}")
    return kind, by_id, menus, floor


def to_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, from one
    list of parts: the ``indent`` argument puts ``json`` on its generator
    encoder, this writer on plain recursion.  A document that holds itself
    is a RecursionError here, where ``json`` raises ValueError."""
    parts = []
    _write(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _write(value, put, newline):
    """Put the parts of ``value``, nested at the indent ``newline`` ends in."""
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            put(sep)
            _write(item, put, inner)
            sep = comma
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            put(f"{sep}{_quote(_key_text(key))}: ")
            _write(item, put, inner)
            sep = comma
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as ``json`` converts it to a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bools are ints
        scalar = []
        _write(key, scalar.append, "")
        return scalar[0]
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_text(value) -> str:
    if value != value:
        return "NaN"
    if value == INFINITY:
        return "Infinity"
    if value == -INFINITY:
        return "-Infinity"
    return float.__repr__(value)
