"""Newline-delimited JSON session logs.

One object per line, fields named after SessionRecord. The purchase label
is optional so the same format serves training data and inference
requests. Parsing is strict and every error carries its line number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Sequence

from .core import SessionRecord, is_finite_number, is_integer, is_number
from .errors import MissingRequiredField, ParseError

REQUIRED_FIELDS = (
    "session_id",
    "days_to_departure",
    "departure_epoch",
    "length_of_stay",
    "market",
    "group_size",
    "booking_class",
    "num_stops",
    "price_comparison_score",
    "price_offered",
)


def session_from_dict(obj: dict, line: int = 0) -> SessionRecord:
    """Build a SessionRecord from a parsed JSON object, validating types.

    Numbers must be finite: NaN, +-Infinity and integers too large for a
    float are rejected with a ParseError.
    """
    if not isinstance(obj, dict):
        raise ParseError(line, f"expected an object, got {type(obj).__name__}")
    for name in REQUIRED_FIELDS:
        if name not in obj or obj[name] is None:
            raise MissingRequiredField(line, name)

    def as_int(name: str) -> int:
        v = obj[name]
        if not is_integer(v):
            raise ParseError(line, f"field {name!r} must be an integer, got {v!r}")
        if not is_finite_number(v):
            raise ParseError(line, f"field {name!r} must be finite, got {v!r}")
        return v

    def as_float(name: str) -> float:
        v = obj[name]
        if not is_number(v):
            raise ParseError(line, f"field {name!r} must be a number, got {v!r}")
        if not is_finite_number(v):
            raise ParseError(line, f"field {name!r} must be finite, got {v!r}")
        return float(v)

    market = obj["market"]
    if (not isinstance(market, (list, tuple)) or len(market) != 2
            or not all(isinstance(m, str) for m in market)):
        raise ParseError(line, "field 'market' must be a pair of strings")

    purchased = obj.get("purchased")
    if purchased is not None and purchased not in (0, 1):
        raise ParseError(line, f"field 'purchased' must be 0 or 1, got {purchased!r}")

    extra = obj.get("extra_features", {})
    if not isinstance(extra, dict):
        raise ParseError(line, "field 'extra_features' must be an object")
    for k, v in extra.items():
        if v is not None and not isinstance(v, (int, float, str)):
            raise ParseError(line, f"extra feature {k!r} must be a number or string")
        if is_number(v) and not is_finite_number(v):
            raise ParseError(line, f"extra feature {k!r} must be finite, got {v!r}")

    try:
        return SessionRecord(
            session_id=str(obj["session_id"]),
            days_to_departure=as_int("days_to_departure"),
            departure_epoch=as_int("departure_epoch"),
            length_of_stay=as_int("length_of_stay"),
            market=(market[0], market[1]),
            group_size=as_int("group_size"),
            booking_class=str(obj["booking_class"]),
            num_stops=as_int("num_stops"),
            price_comparison_score=as_float("price_comparison_score"),
            price_offered=as_float("price_offered"),
            purchased=purchased,
            extra_features={k: v for k, v in extra.items() if v is not None},
        )
    except ValueError as exc:
        raise ParseError(line, str(exc)) from exc


def session_to_dict(session: SessionRecord) -> dict:
    doc = {
        "session_id": session.session_id,
        "days_to_departure": session.days_to_departure,
        "departure_epoch": session.departure_epoch,
        "length_of_stay": session.length_of_stay,
        "market": list(session.market),
        "group_size": session.group_size,
        "booking_class": session.booking_class,
        "num_stops": session.num_stops,
        "price_comparison_score": session.price_comparison_score,
        "price_offered": session.price_offered,
    }
    if session.purchased is not None:
        doc["purchased"] = session.purchased
    if session.extra_features:
        doc["extra_features"] = dict(session.extra_features)
    return doc


def read_sessions(source: str | Path | IO[str]) -> list[SessionRecord]:
    """Parse a session log; raises ParseError with the offending line number.

    A file is read with ``surrogateescape``, which splits its lines as the
    strict codec would and leaves each byte that is not UTF-8 as a lone
    surrogate, so the line holding one is refused by its number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
            return _read_lines(fh)
    return _read_lines(source)


def _read_lines(lines: Iterable[str]) -> list[SessionRecord]:
    out: list[SessionRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            if not stripped.isascii():
                stripped.encode("utf-8")
            obj = json.loads(stripped)
        except UnicodeEncodeError as exc:
            raise ParseError(lineno, "not UTF-8") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON: {exc.msg}") from exc
        out.append(session_from_dict(obj, line=lineno))
    return out


def write_sessions(records: Sequence[SessionRecord], target: str | Path | IO[str]) -> None:
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            _write_lines(records, fh)
    else:
        _write_lines(records, target)


def _write_lines(records: Sequence[SessionRecord], fh: IO[str]) -> None:
    for r in records:
        fh.write(json.dumps(session_to_dict(r), sort_keys=True) + "\n")
