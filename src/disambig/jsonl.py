"""The JSON-lines format shared by every file passed between stages, and the
one checker every row is read through.

Synthesized splits, native corpora, augmentation records and prediction
files are all JSONL: one JSON object per line, written with sorted keys and
without ASCII escaping so that equal data gives equal bytes.  Reading skips
blank lines and reports any malformed row as :class:`SchemaMismatch`
naming the file and the line, so a bad input never escapes as a traceback.
Rows are read one at a time, as they are consumed.  Every output goes
through :func:`staged_outputs`, so that it appears whole or not at all: a
bad row late in an input, or a failed write, leaves no output behind.
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
    """Write ``rows`` to ``path`` as JSONL, all of them or none."""
    with staged_outputs(path) as (handle,):
        for row in rows:
            write_row(handle, row)


def _staging(path: str | Path) -> tuple[Path, Path | None]:
    """``(target, temporary)`` for a write to ``path``: the file written,
    and the sibling it is staged in, or None for a file written in place:
    one that is not a regular file, or the one fd 1 writes."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    with suppress(OSError):  # no such path, or no fd 1
        in_place = in_place or os.path.samestat(os.stat(path), os.fstat(1))
    if in_place:
        return Path(path), None
    target = Path(os.path.realpath(path) if os.path.islink(path) else path)
    return target, target.with_name(f".{target.name}.{os.getpid()}.tmp")


@contextmanager
def staged_outputs(*paths: str | Path) -> Iterator[list[TextIO]]:
    """Text handles for writing ``paths``, each of which appears whole or not
    at all; this is the one way the package writes a file.

    Each handle writes a temporary sibling of its path, in a directory made
    for it when missing.  Once the body is done, every handle is closed and
    only then is each temporary renamed over its path with ``os.replace``.
    On any exception, the temporaries and every directory made here are
    removed, so an earlier file at one of the paths is left as it was.

    A path that is a symbolic link stands for the file it links to: the
    temporary is made beside that file and renamed over it, and the link
    stays.  A path that exists and is not a regular file (a device such as
    ``/dev/null``, a FIFO), or that is the process's own standard output
    (``/dev/stdout``), is opened for appending and written in place, since a
    rename would replace the device or the pipe itself, and a truncating
    open would drop what stdout held before (a shell's ``>>``); such a write
    is not staged, so a failure can leave part of it.  A replaced file is a new
    file: it gets default permissions, and a hard link to the old file
    keeps the old bytes.
    """
    plan = [_staging(path) for path in paths]
    made: list[Path] = []  # directories made here, each after its parent
    handles: list[TextIO] = []
    try:
        for parent in {temp.parent for _, temp in plan if temp}:
            for directory in reversed([d for d in (parent, *parent.parents) if not d.exists()]):
                directory.mkdir()
                made.append(directory)
        for target, temp in plan:
            handles.append(open(temp or target, "x" if temp else "a", encoding="utf-8"))
        yield handles
        for handle in handles:
            handle.close()
        for target, temp in plan:
            if temp:
                os.replace(temp, target)
    except BaseException:
        for handle in handles:
            with suppress(OSError):  # a flush that failed in the body fails again here
                handle.close()
        for _, temp in plan[:len(handles)]:
            if temp:
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
