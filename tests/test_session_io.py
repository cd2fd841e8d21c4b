import io
import json

import pytest

from ancillary_pricing.errors import MissingRequiredField, ParseError
from ancillary_pricing.session_io import (
    read_sessions,
    session_from_dict,
    session_to_dict,
    write_sessions,
)
from ancillary_pricing.simulator import default_market_spec, export_sessions


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_sessions(path) == []


def test_malformed_line_cites_line_number(tmp_path):
    good = json.dumps(session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0]))
    path = tmp_path / "log.jsonl"
    path.write_text(good + "\n" + good + "\n" + "{not json\n")
    with pytest.raises(ParseError) as err:
        read_sessions(path)
    assert err.value.line == 3


@pytest.mark.parametrize("bad_line", [1, 3, 200])
def test_line_that_is_not_utf8_cites_line_number(tmp_path, bad_line):
    # 200 lines span several of the text reader's 8 KiB chunks.
    sessions = export_sessions(default_market_spec(), 200, seed=0)
    lines = [json.dumps(session_to_dict(s)).encode() for s in sessions]
    lines[bad_line - 1] = lines[bad_line - 1].replace(b'"s', b'"\xff\xfes', 1)
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(ParseError) as err:
        read_sessions(path)
    assert (err.value.line, err.value.reason) == (bad_line, "not UTF-8")


def test_utf8_text_still_reads(tmp_path):
    session = export_sessions(default_market_spec(), 1, seed=0)[0]
    doc = session_to_dict(session)
    doc["session_id"] = "s-caf\u00e9-\u2603"
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
    assert read_sessions(path)[0].session_id == "s-caf\u00e9-\u2603"


def test_round_trip_thousand_sessions(tmp_path):
    sessions = export_sessions(default_market_spec(), 1000, seed=11)
    path = tmp_path / "log.jsonl"
    write_sessions(sessions, path)
    assert read_sessions(path) == sessions


def test_round_trip_via_stream():
    sessions = export_sessions(default_market_spec(), 20, seed=2)
    buf = io.StringIO()
    write_sessions(sessions, buf)
    buf.seek(0)
    assert read_sessions(buf) == sessions


def test_missing_required_field():
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    del doc["price_offered"]
    with pytest.raises(MissingRequiredField) as err:
        session_from_dict(doc, line=7)
    assert err.value.line == 7
    assert err.value.name == "price_offered"


def test_label_is_optional():
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    doc.pop("purchased", None)
    session = session_from_dict(doc)
    assert session.purchased is None


def test_blank_lines_skipped(tmp_path):
    sessions = export_sessions(default_market_spec(), 3, seed=3)
    path = tmp_path / "log.jsonl"
    lines = [json.dumps(session_to_dict(s)) for s in sessions]
    path.write_text("\n".join([lines[0], "", lines[1], "   ", lines[2]]) + "\n")
    assert read_sessions(path) == sessions


@pytest.mark.parametrize("field,value", [
    ("days_to_departure", "5"),
    ("days_to_departure", 1.5),
    ("market", ["AAA"]),
    ("market", "AAA-BBB"),
    ("purchased", 2),
    ("price_offered", "cheap"),
    ("extra_features", [1, 2]),
])
def test_bad_field_types_rejected(field, value):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    doc[field] = value
    with pytest.raises(ParseError):
        session_from_dict(doc, line=1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["price_comparison_score", "price_offered"])
def test_non_finite_numbers_rejected(field, value):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    doc[field] = value
    with pytest.raises(ParseError, match="finite"):
        session_from_dict(json.loads(json.dumps(doc)), line=1)


@pytest.mark.parametrize("value", [float("nan"), float("-inf"), 10**400])
def test_non_finite_extra_feature_rejected(value):
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    doc["extra_features"] = {"pop": value}
    with pytest.raises(ParseError, match="finite"):
        session_from_dict(doc, line=1)


def test_integer_too_large_for_float_rejected():
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    doc["days_to_departure"] = 10**400
    with pytest.raises(ParseError, match="finite"):
        session_from_dict(doc, line=1)


def test_domain_violation_becomes_parse_error():
    doc = session_to_dict(export_sessions(default_market_spec(), 1, seed=0)[0])
    doc["group_size"] = 0
    with pytest.raises(ParseError):
        session_from_dict(doc, line=4)
