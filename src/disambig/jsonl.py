"""The JSON-lines format shared by every file passed between stages.

Synthesized splits, native corpora, augmentation records and prediction
files are all JSONL: one JSON object per line, written with sorted keys and
without ASCII escaping so that equal data gives equal bytes.  Reading skips
blank lines and reports any malformed row as :class:`SchemaMismatch`
naming the file and the line, so a bad input never escapes as a traceback.
Whole-document inputs (database, schema-guided corpora, config and
allow-list files, grammars) are read through :func:`read_json` and
:func:`read_text` under the same rule.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import SchemaMismatch

T = TypeVar("T")

# What a row parser raises on a row of the wrong shape.  ValueError also
# covers JSONDecodeError and UnicodeDecodeError; json raises RecursionError
# on nesting deeper than the interpreter's recursion limit.
_ROW_ERRORS = (SchemaMismatch, KeyError, TypeError, ValueError, AttributeError, RecursionError)


def numbered_rows(path: str) -> Iterator[tuple[int, bytes]]:
    """The line number and bytes of every row of ``path``: each non-blank
    line.  Row ``i`` of every reader is the ``i``-th of them."""
    with open(path, "rb") as handle:
        yield from ((line_no, line) for line_no, line in enumerate(handle, start=1) if line.strip())


def iter_jsonl(path: str, parse: Callable[[object], T]) -> Iterator[T]:
    """Yield ``parse(row)`` for every row of ``path``."""
    # Lines are decoded one at a time so that a UTF-8 error names its line.
    for line_no, line in numbered_rows(path):
        try:
            yield parse(json.loads(line.decode("utf-8")))
        except _ROW_ERRORS as exc:
            raise SchemaMismatch(f"{path}: line {line_no}: {exc}") from exc


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


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
