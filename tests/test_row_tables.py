"""Malformed rows of every kind, derived from the row tables themselves.

Each row kind's checker keeps its table as ``fields``.  From a well-formed
row of each kind, ``_mutations`` walks that table, the tables nested in it
and the tables a rule reads a value by (``_NESTED``) included, and lists
every way to break the row: drop a required key, put a value of a wrong
JSON type at a field or at an item of a container, or replace the whole
row with a value that is not an object.  Each broken file
goes through the CLI subcommand that reads it, which must exit 1 with one
labelled ``error:`` line and no text of a Python exception.  The same rows
are then read by the slow references in ``tests/oracles.py``: on a
well-formed row the checker returns what the reference returns, and where
the reference refused the row with a message, the checker refuses it with
that message.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path
from types import GenericAlias

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disambig import augmenter, corpus, metrics, synthesizer
from disambig.cli import run
from disambig.errors import SchemaMismatch
from disambig.grammar import load_grammar_file
from disambig.jsonl import REQUIRED

from .oracles import (
    _slow_dialog_from_schema_guided,
    _slow_native_row,
    slow_dialog_from_json,
    slow_example_row,
    slow_prediction_row,
    slow_record_row,
    slow_validate_corpus,
)

ROOT = Path(__file__).resolve().parents[1]

_ENTITY = {"domain": "hotel", "name": "alder lodge", "attributes": {"area": "north"}}

# A well-formed row of each kind, with every optional key present, so that
# each field of its table has a value to break.
_NATIVE = {"id": "d1", "services": ["hotel"], "extras": {"source": "x"}, "turns": [
    {"speaker": "USER", "utterance": "a hotel", "extras": {},
     "frames": [{"service": "hotel", "requested_slots": ["area"], "extras": {},
                 "slot_values": {"hotel-area": ["north"]}}]},
    {"speaker": "SYSTEM", "utterance": "which one?", "frames": [], "search_results": [_ENTITY],
     "extras": {"disambig": {"target_names": ["alder lodge"], "method": "exact", "origin": "synth"}}}]}
_META = {"meta": {"split_name": "test", "source_format": "native"}}
_SGD = {"dialogue_id": "d1", "services": ["hotels_1"], "turns": [
    {"speaker": "USER", "utterance": "a hotel",
     "frames": [{"service": "hotels_1", "state": {"slot_values": {"area": ["north"]}, "requested_slots": []}}]},
    {"speaker": "SYSTEM", "utterance": "which one?",
     "frames": [{"service": "hotels_1", "service_results": [{"hotel_name": "alder lodge", "area": "north"}]}]}]}
_EXAMPLE = {"system": "alder lodge or birch manor?", "user": "alder lodge", "method": "exact", "domain": "hotel",
            "seed": 0, "candidates": [_ENTITY, {"domain": "hotel", "name": "birch manor"}],
            "target_names": ["alder lodge"]}
_RECORD = {"dialog_id": "d1", "turn_index": 1, "original_system": "s", "new_system": "n", "user_prefix": "alder lodge.",
           "original_user": "u", "candidates": [_ENTITY, {"domain": "hotel", "name": "birch manor"}],
           "target": _ENTITY, "skipped_reason": "not_enough_entities"}
_PREDICTION = {"dialog_id": "synth-000000", "turn_index": 0, "entities": ["alder lodge"],
               "state": {"hotel-area": ["north"]}}

# Each row kind: its checker, a well-formed row, the rows written before it,
# and the subcommand that reads the file.
_KINDS = {
    "native": (corpus.dialog_row, _NATIVE, [_META], ["stats", "--in", "FILE"]),
    "meta": (corpus._HEADER, _META, [], ["stats", "--in", "FILE"]),
    "sgd": (corpus._SGD_DIALOG, _SGD, [], ["stats", "--format", "sgd", "--in", "FILE"]),
    "examples": (synthesizer._EXAMPLE_ROW, _EXAMPLE, [], ["resolve", "--in", "FILE", "--out", "OUT"]),  # sniffed
    "records": (augmenter._RECORD_ROW, _RECORD, [], ["resolve", "--kind", "records", "--in", "FILE", "--out", "OUT"]),
    "predictions": (metrics.prediction_row, _PREDICTION, [], ["score", "--preds", "FILE", "--gold", "GOLD"]),
}

# The values a rule reads by a table, not a field's kind: each turn of a
# dialog, and the "disambig" marker in a turn's extras, which are kept whole.
_NESTED = {
    "native": {("turns", 0): corpus._TURN, ("turns", 1): corpus._TURN,
               ("turns", 1, "extras", "disambig"): corpus._MARKER},
    "sgd": {("turns", 0): corpus._SGD_TURN, ("turns", 1): corpus._SGD_TURN},
}

# Text that only Python's own exceptions write; a labelled error never does.
_PYTHON_TEXT = re.compile(
    r"object is not subscriptable|indices must be|has no attribute|is not iterable|is not a mapping|"
    r"is not a valid|unhashable type|not supported between|object is not callable|positional argument|"
    r"cannot be interpreted|Traceback")


def _json_type(kind) -> type:
    if isinstance(kind, GenericAlias):
        return kind.__origin__
    return dict if hasattr(kind, "fields") else kind


def _mutations(fields, row: dict, nested: dict, path: tuple = ()):
    """``(op, path, JSON type, default)`` for every way to break ``row``
    that its table ``fields`` names: "drop" a required key, or "set" a
    value of a type other than the JSON type, at a field or at an item."""
    for field in fields:
        if field.key not in row:
            continue
        where = path + (field.key,)
        if field.default is REQUIRED:
            yield "drop", where, None, REQUIRED
        yield from _wrong_values(field.kind, field.default, row[field.key], nested, where)


def _wrong_values(kind, default, value, nested: dict, where: tuple):
    yield "set", where, _json_type(kind), default
    if hasattr(kind, "fields"):
        yield from _mutations(kind.fields, value, nested, where)
    elif isinstance(kind, GenericAlias):
        for part in range(len(value)) if kind.__origin__ is list else value:
            yield from _wrong_values(kind.__args__[-1], REQUIRED, value[part], nested, where + (part,))
    else:
        for part in range(len(value)) if kind is list else value if kind is dict else ():
            if where + (part,) in nested:
                yield from _wrong_values(nested[where + (part,)], REQUIRED, value[part], nested, where + (part,))


def _cases():
    for name, (check, row, _, _) in _KINDS.items():
        yield name, "root", (), dict, REQUIRED
        for op, where, json_type, default in _mutations(check.fields, row, _NESTED.get(name, {})):
            yield name, op, where, json_type, default


_CASES = list(_cases())


def _wrong(json_type: type, default) -> st.SearchStrategy:
    """JSON values of any type but ``json_type``; not null where null means absent."""
    values = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2, allow_nan=False),
                       st.text("ab", max_size=3), st.lists(st.integers(0, 2), max_size=2),
                       st.dictionaries(st.text("ab", max_size=2), st.integers(0, 2), max_size=2))
    return values.filter(lambda v: type(v) is not json_type and not (v is None and default is None))


def _broken(row, op: str, where: tuple, value):
    if op == "root":
        return value
    row = json.loads(json.dumps(row))
    holder = row
    for step in where[:-1]:
        holder = holder[step]
    if op == "drop":
        del holder[where[-1]]
    else:
        holder[where[-1]] = value
    return row


def _write(path: Path, name: str, row) -> None:
    if name == "sgd":
        path.write_text(json.dumps([row]), encoding="utf-8")
    else:
        path.write_text("".join(json.dumps(r) + "\n" for r in [*_KINDS[name][2], row]), encoding="utf-8")


def _run_cli(name: str, row) -> tuple[int, str, Path]:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "in.json" if name == "sgd" else "in.jsonl")
        _write(path, name, row)
        gold = Path(directory, "gold.jsonl")
        gold.write_text(json.dumps(_EXAMPLE) + "\n", encoding="utf-8")
        argv = [{"FILE": str(path), "OUT": str(Path(directory, "out.jsonl")), "GOLD": str(gold)}.get(a, a)
                for a in _KINDS[name][3]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        return code, err.getvalue(), path


@pytest.mark.parametrize("name", _KINDS)
def test_well_formed_rows_are_read(name):
    code, err, _ = _run_cli(name, _KINDS[name][1])
    assert code == 0, err


def _case_id(case) -> str:
    name, op, where, _, _ = case
    return "-".join([name, op, *map(str, where)])


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
@settings(max_examples=6)
@given(data=st.data())
def test_malformed_rows_fail_with_one_labelled_line(case, data):
    name, op, where, json_type, default = case
    value = data.draw(_wrong(json_type, default)) if op != "drop" else None
    code, err, path = _run_cli(name, _broken(_KINDS[name][1], op, where, value))
    assert code == 1, (case, value)
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert re.match(rf"error: {re.escape(str(path))}: (line \d+|dialog at index \d+): \S", err), err
    assert not _PYTHON_TEXT.search(err.rstrip("\n")), err


def test_every_table_path_is_a_case():
    """Every kind has its whole-row case, and every table nested in the
    well-formed rows is reached, the turn's, the marker's and the entity's
    included."""
    paths = {(name, where) for name, _, where, _, _ in _CASES}
    assert {("native", ("turns", 1, "extras", "disambig", "target_names", 0)),
            ("native", ("turns", 1, "search_results", 0, "name")),
            ("native", ("turns", 0, "frames", 0, "slot_values", "hotel-area", 0)),
            ("native", ("turns", 1, "extras", "disambig")),
            ("sgd", ("turns", 0, "speaker")),
            ("sgd", ("turns", 1, "frames", 0, "service_results", 0)),
            ("sgd", ("turns", 0, "frames", 0, "state", "slot_values")),
            ("examples", ("candidates", 1, "domain")),
            ("records", ("target", "attributes")),
            ("predictions", ("state", "hotel-area", 0)),
            ("meta", ("meta", "source_format"))} <= paths
    assert {name for name, op, *_ in _CASES if op == "root"} == set(_KINDS)


# --- the checkers against the slow references ------------------------------------


def _slow_dialog(obj):
    row = slow_dialog_from_json(obj)
    slow_validate_corpus(corpus.Corpus(dialogs=[row]))
    return row


def _slow_sgd(obj):
    row = _slow_dialog_from_schema_guided(obj)
    slow_validate_corpus(corpus.Corpus(dialogs=[row]))
    return row


# Each kind: what the checker's public entry point reads a row as, and what the slow reference reads it as.
_READERS = {
    "native": (corpus.dialog_row, _slow_dialog),
    "meta": (corpus._native_row, _slow_native_row),
    "sgd": (corpus._schema_guided_row, _slow_sgd),
    "examples": (synthesizer.SingleTurnExample.from_json, slow_example_row),
    "records": (augmenter.AugmentationRecord.from_json, slow_record_row),
    "predictions": (metrics.prediction_row, slow_prediction_row),
}


def _outcome(read, obj):
    try:
        return "row", read(obj)
    except SchemaMismatch as exc:
        return SchemaMismatch, str(exc)
    except KeyError as exc:  # a reader's missing key, as the JSONL reader reports it
        return SchemaMismatch, f"missing key {exc}"
    except Exception as exc:  # a reference that did not check the value
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _shipped():
    return (corpus.load_database(str(ROOT / "data" / "database.json")),
            load_grammar_file(str(ROOT / "grammars" / "disambiguation.cfg")))


@st.composite
def _well_formed(draw, name: str):
    """A well-formed row of ``name``: the base row, or for examples and
    records one made from a synthesized example."""
    if name not in ("examples", "records"):
        return _KINDS[name][1]
    db, grammar = _shipped()
    example = synthesizer.synthesize_example(db, grammar, draw(st.sampled_from(sorted(db.tables))),
                                             draw(st.sampled_from(synthesizer.METHODS)), draw(st.integers(0, 999)))
    if name == "examples":
        return example.to_json()
    return {"dialog_id": f"d{example.seed}", "turn_index": example.seed % 7, "original_system": "s",
            "new_system": example.system_utterance, "user_prefix": example.user_utterance, "original_user": "u",
            "candidates": example.candidates, "target": example.candidates[example.targets[0]],
            "skipped_reason": draw(st.sampled_from([None, augmenter.SKIP_NOT_ENOUGH_ENTITIES]))}


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
@settings(max_examples=6)
@given(data=st.data())
def test_checkers_match_the_slow_references(case, data):
    """On a well-formed row the checker returns what the reference returns.
    On a broken one it refuses the row, and where the reference refused it
    too, for the missing key or as a value of the wrong type, it does so
    with the reference's message.  (A reference that iterates a string or
    a container it did not check can refuse the row for another reason.)"""
    name, op, where, json_type, default = case
    new, old = _READERS[name]
    row = data.draw(_well_formed(name))
    assert _outcome(new, row) == _outcome(old, row)
    value = data.draw(_wrong(json_type, default)) if op != "drop" else None
    broken = _broken(_KINDS[name][1], op, where, value)
    expected, got = _outcome(old, broken), _outcome(new, broken)
    assert got[0] is SchemaMismatch, (broken, got)
    if expected[0] is SchemaMismatch and (op == "drop" or ": expected " in expected[1]):
        assert got == expected, broken
