"""The JSON-lines format shared by every file passed between stages, and the
one checker every row is read through.

Synthesized splits, native corpora, augmentation records and prediction
files are all JSONL: one JSON object per line, written with sorted keys and
without ASCII escaping so that equal data gives equal bytes.  Reading skips
blank lines and reports any malformed row as :class:`SchemaMismatch`
naming the file and the line, so a bad input never escapes as a traceback.
Rows are read one at a time, as they are consumed.  Outputs written while
their inputs are still being read go through :func:`staged_outputs`, so
that a bad row late in an input leaves no output behind.
Whole-document inputs (database, schema-guided corpora, config and
allow-list files, grammars) are read through :func:`read_json` and
:func:`read_text` under the same rule.

Each row kind is declared once, as a table of :class:`Field` entries in the
module that owns its format, and :func:`row_checker` builds its checker
from that table.  A checker refuses a value that is not an object
(``expected an object, got 5``), then the first required key that is
absent, and only then reads the table's keys in order, refusing the first
that holds a value of the wrong JSON type in the one form
``<label>: expected <kind>, got <value>``.  Labels are format strings over
the fields read before them, filled in only when a check fails.  A rule
that relates a field to earlier ones is a short function the field's entry
names, run once the field is read.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager, suppress
from itertools import chain
from pathlib import Path
from types import GenericAlias
from typing import Callable, Hashable, Iterable, Iterator, TextIO, TypeVar

from .errors import SchemaMismatch

T = TypeVar("T")

# What a row parser raises on a row of the wrong shape.  ValueError also
# covers JSONDecodeError and UnicodeDecodeError; json raises RecursionError
# on nesting deeper than the interpreter's recursion limit.
_ROW_ERRORS = (SchemaMismatch, KeyError, TypeError, ValueError, AttributeError, RecursionError)

# json.dumps with these flags builds this same encoder for every call.  A
# row is a tree (decoded from JSON or built by the program), never a cycle,
# so the encoder need not track the containers it has entered: the bytes
# are the same without the circular-reference check.
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False).encode

_KIND_NAMES = {list: "an array", dict: "an object", str: "a string", int: "an integer"}

REQUIRED = object()  # the default of a key that must be present


class Field:
    """One key of a row kind's table.

    ``kind`` is the key's JSON type (``str``, ``int``, ``list`` or
    ``dict``); or ``list[item]`` or ``dict[str, item]``, whose items are of
    a JSON type or are lists of items of one, or ``list[row kind]`` for a
    list of rows; or another row kind's checker, for an object that is such
    a row.  A row kind is given by its checker.
    ``default`` is REQUIRED; None, for a key whose absent or null value is
    left out of the row; or the value of an absent key, a list or object
    one (which must be empty) copied for each row.
    ``labels`` name the value, its items and their items in errors, and may
    use the fields read before it and the ``{index}`` or ``{key}`` of an
    item; the first defaults to the key and each other to the one before
    plus ``" item"``.
    ``then(value, row)``, for a key of a plain JSON type, runs on its value
    once it is read, with the row of the fields before it, and returns the
    value the row keeps: a rule that relates the field to earlier ones, or
    a conversion.
    """

    __slots__ = ("key", "kind", "default", "labels", "then")

    def __init__(self, key: str, kind, default=REQUIRED, labels: tuple[str, ...] = (),
                 then: Callable[[object, dict], object] | None = None):
        self.key, self.kind, self.default, self.labels, self.then = key, kind, default, labels, then


def _names(*names, **more) -> defaultdict:
    """The names a label is filled from; one the row lacks reads as None."""
    return defaultdict(type(None), *names, **more)


def wrong_type(value, kind: type, label: str = "") -> SchemaMismatch:
    """The error for ``value`` found where ``label``, a JSON value of ``kind``, belongs."""
    return SchemaMismatch(f"{label}{': ' if label else ''}expected {_KIND_NAMES[kind]}, got {value!r:.60}")


def _reader(kind, labels: tuple[str, ...]) -> tuple:
    """``(JSON type, read)`` of a Field kind, where ``read(value, names)``
    returns the value read from one of that type, checking its parts, and
    is None when there is nothing more to check."""
    if isinstance(kind, GenericAlias):
        return kind.__origin__, _items(kind.__origin__, kind.__args__[-1], labels[1:] or (labels[0] + " item",))
    if kind in _KIND_NAMES:
        return kind, None
    return dict, lambda value, names: kind(value)  # another row kind's checker


def _items(container: type, item, labels: tuple[str, ...]):
    """The read of a list or an object whose items are of Field kind
    ``item``.  A list of rows is read in one comprehension, and items of a
    JSON type, or lists of them, are checked at C speed; only when that
    fails are the items walked one by one, to name the first wrong one."""
    kind, read = _reader(item, labels)
    kinds, inner = frozenset((kind,)), frozenset(item.__args__) if isinstance(item, GenericAlias) else None
    by = "index" if container is list else "key"

    def walk(value, names):
        for where, part in enumerate(value) if container is list else value.items():
            scope = _names(names, **{by: where})
            if type(part) is not kind:
                raise wrong_type(part, kind, labels[0].format_map(scope))
            if read is not None:
                read(part, scope)

    def read_rows(value, names):
        try:
            return [item(part) for part in value]
        except SchemaMismatch:
            walk(value, names)
            raise

    def read_values(value, names):
        parts = value if container is list else value.values()
        if kinds.issuperset(map(type, parts)) and (
                inner is None or inner.issuperset(map(type, chain.from_iterable(parts)))):
            return value
        walk(value, names)

    if read is None or inner is not None:
        return read_values
    if container is not list:
        raise ValueError("rows are read from a list only")
    return read_rows


def _step(field: Field) -> tuple:
    """``(key, default, JSON type, read, whether an empty value is read)``:
    how a checker reads ``field``."""
    if type(field.default) in (list, dict) and field.default:
        raise ValueError(f"{field.key}: a list or object default must be empty")
    kind, read = _reader(field.kind, field.labels or (field.key,))
    if field.then is not None and read is not None:
        raise ValueError(f"{field.key}: only a key of a plain JSON type takes a then")
    return field.key, field.default, kind, field.then or read, not isinstance(field.kind, GenericAlias)


def row_checker(fields: tuple[Field, ...], missing: str | None = None,
                rest: str | None = None) -> Callable[[object], dict]:
    """The checker of the row kind whose table is ``fields``: a function from
    a decoded JSON value to the row of the table's keys, each read, with
    defaults filled in.  Other keys are dropped, or gathered in an object
    under ``rest``.  An absent required key is reported before any other
    error: ``missing`` is the message of the first one, filled from the
    object's own values, or without it the checker raises KeyError.  The
    table is the checker's ``fields``."""
    steps = tuple(map(_step, fields))
    required = tuple(field.key for field in fields if field.default is REQUIRED)
    present, keys = frozenset(required), frozenset(field.key for field in fields)
    labels = {field.key: (field.labels or (field.key,))[0] for field in fields}

    def absent(obj: dict) -> Exception:
        key = next(key for key in required if key not in obj)
        return KeyError(key) if missing is None else SchemaMismatch(missing.format_map(_names(obj, key=key)))

    def check(obj):
        if type(obj) is not dict:
            raise wrong_type(obj, dict)
        row = {}
        try:
            for key, default, kind, read, read_empty in steps:
                if key in obj:
                    value = obj[key]
                    if type(value) is not kind:  # JSON values are of their exact types
                        if value is None and default is None:
                            continue
                        raise wrong_type(value, kind, labels[key].format_map(_names(row)))
                elif default is None:
                    continue
                elif default is REQUIRED:
                    raise absent(obj)
                else:
                    value = default.copy() if type(default) in (list, dict) else default
                row[key] = value if read is None or not (value or read_empty) else read(value, row)
        except SchemaMismatch:
            if not present <= obj.keys():  # an absent required key comes before any other error
                raise absent(obj) from None
            raise
        if rest is not None:
            row[rest] = {key: value for key, value in obj.items() if key not in keys}
        return row

    check.fields = fields
    return check


def numbered_rows(path: str) -> Iterator[tuple[int, bytes]]:
    """The line number and bytes of every row of ``path``: each non-blank
    line.  Row ``i`` of every reader is the ``i``-th of them."""
    with open(path, "rb") as handle:
        yield from ((line_no, line) for line_no, line in enumerate(handle, start=1) if not line.isspace())


def iter_jsonl(path: str, parse: Callable[[object], T]) -> Iterator[T]:
    """Yield ``parse(row)`` for every row of ``path``."""
    # Lines are decoded one at a time so that a UTF-8 error names its line.
    for line_no, line in numbered_rows(path):
        try:
            yield parse(json.loads(line.decode("utf-8")))
        except _ROW_ERRORS as exc:
            detail = f"missing key {exc}" if type(exc) is KeyError else exc  # a KeyError's text is the bare key
            raise SchemaMismatch(f"{path}: line {line_no}: {detail}") from exc


def once_per_key(parse: Callable[[object], T], key: Callable[[T], Hashable], what: str) -> Callable[[object], T]:
    """``parse`` for the rows of one file, refusing a row whose ``key`` an
    earlier row had: ``duplicate <what> <key>``."""
    seen: set = set()

    def parse_once(obj: object) -> T:
        row = parse(obj)
        if (found := key(row)) in seen:
            raise SchemaMismatch(f"duplicate {what} {found!r}")
        seen.add(found)
        return row

    return parse_once


def write_row(handle: TextIO, row: dict) -> None:
    """Write ``row`` to ``handle`` as one JSONL line."""
    handle.write(_encode(row) + "\n")


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            write_row(handle, row)


@contextmanager
def staged_outputs(*paths: str | Path) -> Iterator[list[TextIO]]:
    """Text handles for writing ``paths``, all of which appear or none.

    Each handle writes a temporary sibling of its path, in a directory made
    for it when missing.  Once the body is done, every handle is closed and
    only then is each temporary renamed over its path with ``os.replace``.
    On any exception, the temporaries and every directory made here are
    removed, so an earlier file at one of the paths is left as it was.
    """
    made: list[Path] = []  # directories made here, each after its parent
    staged = [Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp") for path in paths]
    handles: list[TextIO] = []
    try:
        for parent in {temp.parent for temp in staged}:
            for directory in reversed([d for d in (parent, *parent.parents) if not d.exists()]):
                directory.mkdir()
                made.append(directory)
        for temp in staged:
            handles.append(open(temp, "x", encoding="utf-8"))
        yield handles
        for handle in handles:
            handle.close()
        for temp, path in zip(staged, paths):
            os.replace(temp, path)
    except BaseException:
        for handle in handles:
            handle.close()
        for temp in staged[:len(handles)]:
            temp.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # not empty: a rename was done before one failed
                directory.rmdir()
        raise


def read_text(path: str) -> str:
    """The text of a whole-document input file, which must be UTF-8."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"{path}: {exc}") from exc


def read_json(path: str):
    """Load a whole-document JSON file."""
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"{path}: invalid JSON: {exc}") from exc
