"""JSON wire formats: datasets, menus files, fitted parameters.

Rationals travel as strings, either "p/q" or decimal ("0.8"), and are
parsed exactly.  All emitters sort keys so identical inputs always
produce byte-identical output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .choices import (
    Alternative,
    ChoiceDataset,
    DATED_PAYMENT,
    GENERIC,
    INCOME_SPLIT,
    LOTTERY,
    LotteryPayload,
    PaymentPayload,
    SplitPayload,
    sorted_menus,
    validate_dataset,
)
from .exceptions import DuplicateMenu, ValidationError


def parse_rational(text) -> Fraction:
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
    return str(Fraction(value))


def _payload_from_json(kind, raw):
    if kind == GENERIC:
        if raw not in (None, {}):
            raise ValidationError("generic alternatives carry no payload")
        return None
    if raw is None:
        raise ValidationError(f"{kind} alternatives need a payload")
    if kind == LOTTERY:
        return LotteryPayload(tuple((parse_rational(x), parse_rational(p))
                                    for x, p in raw["probs"].items()))
    if kind == DATED_PAYMENT:
        return PaymentPayload(parse_rational(raw["amount"]), parse_rational(raw["time"]))
    if kind == INCOME_SPLIT:
        return SplitPayload(parse_rational(raw["own"]), parse_rational(raw["other"]))
    raise ValidationError(f"unknown dataset kind {kind!r}")


def _payload_to_json(payload):
    if payload is None:
        return None
    if isinstance(payload, LotteryPayload):
        return {"probs": {format_rational(x): format_rational(p)
                          for x, p in payload.probs}}
    if isinstance(payload, PaymentPayload):
        return {"amount": format_rational(payload.amount),
                "time": format_rational(payload.time)}
    if isinstance(payload, SplitPayload):
        return {"own": format_rational(payload.own),
                "other": format_rational(payload.other)}
    raise ValidationError(f"unknown payload {payload!r}")


def _alternatives_from_json(kind, raw):
    alts = []
    for a in raw:
        if not isinstance(a["id"], str):
            raise ValidationError(f"alternative id {a['id']!r} is not a string")
        alts.append(Alternative(a["id"], _payload_from_json(kind, a.get("payload"))))
    return alts


def ids_from_json(raw, what):
    """A menu, choice or order: an array of alternative ids, not a bare string."""
    if isinstance(raw, str) or not all(isinstance(x, str) for x in raw):
        raise ValidationError(f"{what} {raw!r} is not an array of alternative ids")
    return raw


def dataset_from_dict(doc) -> ChoiceDataset:
    try:
        kind = doc["kind"]
        alts = _alternatives_from_json(kind, doc["alternatives"])
        observations = [(ids_from_json(obs["menu"], "menu"),
                          ids_from_json(obs["choice"], "choice"))
                         for obs in doc["observations"]]
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


def load_dataset(path) -> ChoiceDataset:
    with open(path) as fh:
        return dataset_from_dict(json.load(fh))


def dump_dataset(ds: ChoiceDataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_json(dataset_to_dict(ds)))


def menus_from_dict(doc):
    """A menus file: a dataset document listing each menu once under "menus"."""
    try:
        kind = doc["kind"]
        alts = _alternatives_from_json(kind, doc["alternatives"])
        menus = [frozenset(ids_from_json(m, "menu")) for m in doc["menus"]]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed menus document: {exc}") from exc
    by_id = {}
    for alt in alts:
        if alt.id in by_id:
            raise ValidationError(f"duplicate alternative id {alt.id!r}")
        by_id[alt.id] = alt
    for menu in menus:
        if not menu:
            raise ValidationError("empty menu in menus file")
        if not menu <= by_id.keys():
            raise ValidationError(f"menu {sorted(menu)} uses undeclared ids")
    if len(set(menus)) < len(menus):
        repeat = next(menu for pos, menu in enumerate(menus) if menu in menus[:pos])
        raise DuplicateMenu(f"menu {sorted(repeat)} listed twice")
    floor = parse_rational(doc["floor"]) if "floor" in doc else None
    if floor is not None and kind != INCOME_SPLIT:
        raise ValidationError(f"a floor applies only to {INCOME_SPLIT} menus, not {kind}")
    return kind, by_id, menus, floor


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
