"""Normalized data model for multi-domain task-oriented dialogs.

The native on-disk format is JSON lines: an optional first line
``{"meta": {"split_name": ..., "source_format": ...}}`` followed by one
dialog object per line.  It is the one format the package writes.  Adapters
read SGD-style directories and MultiWOZ-2.2-style JSON (both share the
schema-guided envelope) into native rows; fields the model does not cover
ride along in opaque ``extras`` blobs, so no annotation of the source is
dropped.

Every row kind of these formats is a table of ``jsonl.Field`` entries here,
and its checker is built from the table: the meta header, the dialog, its
turns and frames, the ``disambig`` marker, the entity, the database
document, and the schema-guided dialog, turn, frame and state.  Each row is
checked once, as it is decoded, and a message is formatted only when a check
fails: a missing key or a value of the wrong JSON type raises SchemaMismatch
instead of being coerced.  Rules that relate fields are short code beside
the tables: ``_read_turns`` reads a dialog's turns and checks each as it
goes (known speakers that alternate, no search results on a user turn,
frames of declared services, no empty slot name or value, a well-formed
marker), ``_nonempty_name`` and ``_as_text`` read an entity's name and
attributes, and ``_native_row`` checks the meta header's split.  Both
formats end in ``dialog_row`` (a native dialog already in table form in
``_in_table_form``, which makes the same checks), and the same per-row
check then refuses a repeated dialog id or a meta header after the first
row.  Every error of a row names the file and its line for JSONL, or the
file and the dialog's index for SGD and MultiWOZ.

``read_corpus`` yields the dialog rows one at a time, as they are consumed:
a native file line by line, an SGD or MultiWOZ directory one
``dialogues_*.json`` file at a time.  Only the dialog ids read so far are
kept, for the duplicate check.  ``load_corpus`` reads them into a list.
The ``augment``, ``stats`` and ``score`` subcommands stream a native corpus
and hold one dialog at a time (``score`` keeps a small index of the gold
corpus, see ``metrics.gold_index``).  ``upsample`` streams it too, and holds
only the ids and the augmented dialogs it copies.  ``resolve`` and ``synth``
hold all their rows: ``read_examples`` returns a list, which the benchmark's
traced observer iterates.
A dialog is a plain row ``{"id", "services", "turns", "extras"}``, and so
are its turns, their frames and their search results: each turn holds
``speaker``, ``utterance``, ``frames`` and ``extras``
(plus ``search_results`` when it has any), each frame ``service``,
``slot_values``, ``requested_slots`` and ``extras``, and each result
``domain``, ``name`` and ``attributes``.  A native dialog already in this
form, as every corpus this program writes is, is kept as ``json.loads``
built it (``_in_table_form`` says which are).  Any other is rebuilt by the
tables: its rows hold the lists and dicts ``json.loads`` built, except that
a result is an entity row made by ``entity_row``.  Writing dumps the rows
as they are, with sorted keys, so no output depends on which way a row was
read.

An entity row is ``{"domain": str, "name": str, "attributes": {str: str}}``.
``entity_row`` is its one check: a string domain, a non-empty string name,
and attribute values read as text (an object whose values are all strings
is kept, any other is copied with each value made a string).  Search
results, database tables, synthesized candidates, augmentation pools and
record targets are all entity rows, and ``resolver.resolve`` and
``predict_names`` take lists of them.

The per-domain entity store is a JSON document::

    {"name_fields": {"hotel": "name", ...},
     "nouns": {"hotel": "hotel", ...},            # optional
     "tables": {"hotel": [{"name": ..., "area": ...}, ...], ...}}

Its flat records load as entity rows of their domain, with the name field's
value as the name and every other field as an attribute.

Corpus and Database instances are immutable after load, the adopted
containers included.  An operation that "modifies" a dialog returns a new
dialog row sharing every part it did not change (the augmenter rebuilds only
the turns it rewrites), so input and output are both read-only from then on.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .errors import NotEnoughEntities, SchemaMismatch, UnknownDomain
from .jsonl import REQUIRED, Field, iter_jsonl, read_json, row_checker, staged_outputs, write_jsonl

USER = "USER"
SYSTEM = "SYSTEM"
_SPEAKERS = frozenset((USER, SYSTEM))
_TEXT = frozenset((str,))

_EDGE_PUNCT_RE = re.compile(r"^[^\w]+|[^\w]+$")
_WS_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def normalize(text: str) -> list[str]:
    """Lowercase, strip punctuation to word boundaries, whitespace-split:
    the tokens the resolver reads a name or a reply as."""
    return _TOKEN_RE.findall(text.lower())


@lru_cache(maxsize=4096)
def name_key(text: str) -> str:
    """Normalization used for entity-name uniqueness and value matching:
    lowercase, strip leading/trailing punctuation, collapse whitespace.
    Memoized per distinct string."""
    return _WS_RE.sub(" ", _EDGE_PUNCT_RE.sub("", text.strip().lower()))


@lru_cache(maxsize=4096)
def name_text(name: str) -> str:
    """The normalized tokens of ``name`` joined by spaces: the text two names
    must differ in for the resolver and the scorer to tell them apart.
    Memoized per distinct string."""
    return " ".join(normalize(name))


def _nonempty_name(name: str, entity: dict) -> str:
    if not name:
        raise SchemaMismatch(f"entity in domain {entity['domain']!r} has an empty name")
    return name


def _as_text(attributes: dict, entity: dict) -> dict:
    if _TEXT.issuperset(map(type, attributes.values())):
        return attributes
    return {k: v if type(v) is str else str(v) for k, v in attributes.items()}


# The entity row: a string domain, a non-empty string name and an object of
# attributes ({} when absent), whose values are read as text.
entity_row = row_checker((
    Field("domain", str, labels=("entity domain",)),
    Field("name", str, labels=("entity name",), then=_nonempty_name),
    Field("attributes", dict, {}, ("entity {name!r} attributes",), then=_as_text),
), "entity record missing key {key!r}")


def gold_marker(origin: str, method: str, target_names: list[str], candidates: list[dict]) -> dict:
    """The ``disambig`` marker of a system turn that lists ``candidates`` and
    whose user reply picks ``target_names`` by addressing ``method``; it is
    the gold label for scoring, and ``_read_turns`` checks it on load."""
    return {"origin": origin, "method": method, "target_names": target_names,
            "candidate_names": [e["name"] for e in candidates]}


# A turn's extras, and the "disambig" marker in them, are kept whole.
# ``_read_turns`` checks extras that hold the key by ``_TURN_EXTRAS``, whose
# marker is required there, so that a null marker is refused too.
_MARKER = row_checker((
    Field("target_names", list[str], labels=("marker target_names", "marker target name")),
    Field("method", str, "", ("marker method",)),
    Field("origin", str, "", ("marker origin",)),
), "marker missing key {key!r}")
_TURN_EXTRAS = row_checker((Field("disambig", _MARKER, labels=("disambig marker",)),))

_FRAME = row_checker((
    Field("service", str, labels=("frame service",)),
    Field("extras", dict, {}, ("frame extras",)),
    Field("requested_slots", list[str], [], ("requested_slots", "requested slot")),
    Field("slot_values", dict[str, list[str]], {}, ("slot_values", "slot {key!r}", "slot {key!r} value")),
), "frame missing key {key!r}")

_TURN = row_checker((
    Field("speaker", str),
    Field("utterance", str),
    Field("extras", dict, {}),
    Field("frames", list[_FRAME], []),
    Field("search_results", list[entity_row], None),
), "missing key {key!r}")


def _in_table_form(turns: list, services: list) -> bool:
    """Whether ``turns`` is already the list ``_read_turns`` would build:
    each turn, frame and search result holds exactly its table's keys, each
    of its JSON type, and every check of ``_read_turns`` holds.  False at
    the first doubt, for the tables to rebuild the list or name the fault.
    A row is counted and then each of its table's keys read from it, so a
    row of as many keys that lacks one raises KeyError, which is a doubt."""
    previous = None
    try:
        for turn in turns:
            if type(turn) is not dict or len(turn) not in (4, 5):
                return False
            speaker, extras, frames = turn["speaker"], turn["extras"], turn["frames"]
            if (speaker == previous or speaker not in (USER, SYSTEM) or type(turn["utterance"]) is not str
                    or type(extras) is not dict or type(frames) is not list):
                return False
            if len(turn) == 5:
                results = turn["search_results"]
                if speaker == USER or type(results) is not list:
                    return False
                for entity in results:
                    if type(entity) is not dict or len(entity) != 3 or type(entity["domain"]) is not str:
                        return False
                    name, attributes = entity["name"], entity["attributes"]
                    if type(name) is not str or not name or type(attributes) is not dict:
                        return False
                    for value in attributes.values():
                        if type(value) is not str:
                            return False
            if "disambig" in extras:
                _TURN_EXTRAS(extras)
            for frame in frames:
                if type(frame) is not dict or len(frame) != 4 or frame["service"] not in services:
                    return False
                requested, slot_values = frame["requested_slots"], frame["slot_values"]
                if type(frame["extras"]) is not dict or type(requested) is not list or type(slot_values) is not dict:
                    return False
                for slot in requested:
                    if type(slot) is not str:
                        return False
                for slot, values in slot_values.items():
                    if not slot or type(values) is not list:
                        return False
                    for value in values:
                        if type(value) is not str or not value:
                            return False
            previous = speaker
    except (KeyError, SchemaMismatch):
        return False
    return True


def _read_turns(raw_turns: list, dialog: dict) -> list[dict]:
    """The turn rows of ``raw_turns``: the list itself when it is already in
    table form, else each turn read by the turn table and then checked
    against the dialog.  Refuse, naming the turn, its first error: one the
    table finds, an unknown speaker, two turns of one speaker in a row, a
    user turn with search results, a malformed ``disambig`` marker, a frame
    of a service the dialog does not declare, or an empty slot name or
    value."""
    if _in_table_form(raw_turns, dialog["services"]):
        return raw_turns
    turns, previous, services = [], None, dialog["services"]
    for index, raw in enumerate(raw_turns):
        try:
            turn = _TURN(raw)
            speaker = turn["speaker"]
            if speaker not in _SPEAKERS:
                raise SchemaMismatch(f"speaker {speaker!r}")
            if speaker == previous:
                raise SchemaMismatch("speakers do not alternate")
            if speaker == USER and "search_results" in turn:
                raise SchemaMismatch("user turns cannot carry search results")
            if "disambig" in turn["extras"]:
                _TURN_EXTRAS(turn["extras"])
            for frame in turn["frames"]:
                if frame["service"] not in services:
                    raise SchemaMismatch(f"frame service {frame['service']!r} not in dialog services")
                slot_values = frame["slot_values"]
                if "" in slot_values or not all(map(all, slot_values.values())):
                    empty = next(slot for slot, values in slot_values.items() if not slot or not all(values))
                    raise SchemaMismatch(f"slot {empty!r} has an empty value" if empty else "empty slot name")
        except SchemaMismatch as exc:
            raise SchemaMismatch(f"dialog {dialog['id']!r} turn {index}: {exc}") from exc
        turns.append(turn)
        previous = speaker
    return turns


# The dialog row of a native row, adopting its containers; the turn rows
# get every key with its default and drop unknown keys.
dialog_row = row_checker((
    Field("id", str, labels=("dialog id",)),  # prediction keys, which must match it, are strings
    Field("services", list[str], labels=("dialog {id!r} services", "dialog {id!r} service")),
    Field("extras", dict, {}, ("dialog {id!r} extras",)),
    Field("turns", list, labels=("dialog {id!r} turns",), then=_read_turns),
), "dialog record missing key {key!r}")


SPLITS = ("train", "dev", "test")


class Corpus(NamedTuple):
    dialogs: list[dict]
    split_name: str = "train"
    source_format: str = "native"


# --- native format ------------------------------------------------------------


def write_corpus(corpus: Corpus, path: str) -> None:
    """Write a corpus as a native file, the exact inverse of the loader."""
    write_jsonl(path, itertools.chain([header_row(corpus)], corpus.dialogs))


def header_row(corpus: Corpus) -> dict:
    """The meta header, the first row of the native file of ``corpus``."""
    return {"meta": {"split_name": corpus.split_name, "source_format": corpus.source_format}}


def read_corpus(path: str, format: str = "native") -> Corpus:
    """A corpus whose ``dialogs`` is a one-pass iterator over its checked
    dialog rows, each read and checked as it is consumed: a native file row
    by row, an SGD or MultiWOZ directory file by file.  The split name and
    source format are read on the call (a native file's first row).  A row
    that breaks an invariant, a repeated dialog id or a meta header after
    the first row raises SchemaMismatch naming the file and the row's line
    (native) or the dialog's index (SGD and MultiWOZ)."""
    rows = _corpus_rows(path, format)
    split_name, source_format = next(rows)
    return Corpus(dialogs=rows, split_name=split_name, source_format=source_format)


def load_corpus(path: str, format: str = "native") -> Corpus:
    """``read_corpus`` with its dialogs read into a list."""
    corpus = read_corpus(path, format)
    return corpus._replace(dialogs=list(corpus.dialogs))


def _corpus_rows(path: str, format: str) -> Iterator:
    """The ``(split_name, source_format)`` of the corpus at ``path``, then
    each of its dialog rows."""
    if format == "native":
        header, decode, parse = ("train", "native"), iter_jsonl, _native_row
    elif format in ("sgd", "multiwoz22"):
        header, decode, parse = (_infer_split(path), format), _schema_guided_rows, _schema_guided_row
    else:
        raise SchemaMismatch(f"unknown corpus format {format!r}")
    seen: set = set()  # the id of each dialog row so far, and None for a meta header

    def check(obj: dict) -> dict | tuple[str, str]:
        row = parse(obj)
        key = row["id"] if isinstance(row, dict) else None
        if key is None and seen:
            raise SchemaMismatch("only the first row may be a meta header")
        if key in seen:
            raise SchemaMismatch(f"duplicate dialog id {key!r}")
        seen.add(key)
        return row

    rows = decode(path, check)
    first = next(rows, None)
    if isinstance(first, tuple):  # the meta header's values replace the defaults
        yield first
    else:
        yield header
        if first is not None:
            yield first
    yield from rows


_HEADER = row_checker((
    Field("meta", row_checker((
        Field("split_name", str, "train", ("meta split_name",)),
        Field("source_format", str, "native", ("meta source_format",)),
    ))),
))


_DIALOG_KEYS = frozenset(("id", "services", "extras", "turns"))


def _native_row(obj: dict) -> dict | tuple[str, str]:
    """A dialog row, or the ``(split_name, source_format)`` of a ``meta``
    header row.  A dialog already in table form is kept as decoded."""
    if type(obj) is not dict:
        return dialog_row(obj)
    if "meta" in obj:
        split_name, source_format = _HEADER(obj)["meta"].values()
        if split_name not in SPLITS:
            raise SchemaMismatch(f"split_name {split_name!r} not one of {SPLITS}")
        return split_name, source_format
    if (obj.keys() == _DIALOG_KEYS and type(obj["id"]) is str and type(obj["extras"]) is dict
            and type(obj["services"]) is list and _TEXT.issuperset(map(type, obj["services"]))
            and type(obj["turns"]) is list and _in_table_form(obj["turns"], obj["services"])):
        return obj
    return dialog_row(obj)


# --- schema-guided adapters (SGD and MultiWOZ 2.2 share the envelope) ---------

# Known name fields for search-result records, by service prefix.  Anything
# unlisted falls back to the first "*_name" key, then "name", then "title".
_NAME_FIELD_HINTS = {
    "restaurant": "name",
    "hotel": "name",
    "attraction": "name",
    "restaurants": "restaurant_name",
    "hotels_4": "place_name",
    "hotels": "hotel_name",
    "movies_3": "movie_title",
    "movies": "movie_name",
    "media_2": "movie_name",
    "media": "title",
    "music_3": "track",
    "music": "song_name",
    "events": "event_name",
    "homes": "property_name",
    "services_1": "stylist_name",
    "services_2": "dentist_name",
    "services_3": "doctor_name",
    "services_4": "therapist_name",
    "travel": "attraction_name",
    "messaging": "contact_name",
}


def guess_name_field(service: str, record: dict) -> str:
    for key in (service, service.rsplit("_", 1)[0]):
        if key in _NAME_FIELD_HINTS:
            return _NAME_FIELD_HINTS[key]
    if record:
        named = sorted(k for k in record if k.endswith("_name"))
        if named:
            return named[0]
        for fallback in ("name", "title"):
            if fallback in record:
                return fallback
        return sorted(record)[0]
    return "name"


def _entity_row(domain: str, record: dict, name_field: str, where: str) -> dict:
    """A flat record that keeps its name under ``name_field`` as a native
    entity row, for ``entity_row`` to check."""
    if name_field not in record:
        raise SchemaMismatch(f"{where} lacks its name field {name_field!r}")
    attributes = {k: v for k, v in record.items() if k != name_field}
    return {"domain": domain, "name": str(record[name_field]), "attributes": attributes}


def _entity_record(row: dict, name_field: str) -> dict:
    """The inverse of ``_entity_row``: an entity row as a flat record with its name under ``name_field``."""
    if name_field in row["attributes"]:
        raise SchemaMismatch(
            f"entity {row['name']!r} of {row['domain']!r}: attribute {name_field!r} would read back as its name"
        )
    return {**row["attributes"], name_field: row["name"]}


def _schema_guided_files(path: str) -> list[Path]:
    root = Path(path)
    if root.is_dir():
        files = sorted(root.glob("dialogues_*.json"))
        if not files:
            raise SchemaMismatch(f"{path}: no dialogues_*.json files found")
        return files
    return [root]


def _infer_split(path: str) -> str:
    for part in reversed(Path(path).parts):
        stem = part.split(".")[0]
        if stem in SPLITS:
            return stem
    return "train"


def _schema_guided_rows(path: str, parse: Callable[[dict], object]) -> Iterator[object]:
    """Yield ``parse(obj)`` for every dialog object of the schema-guided
    file(s) at ``path``; an error names the file and the dialog's index."""
    for file_path in _schema_guided_files(path):
        payload = read_json(str(file_path))
        if not isinstance(payload, list):
            raise SchemaMismatch(f"{file_path}: expected a list of dialogs")
        for index, obj in enumerate(payload):
            try:
                yield parse(obj)
            except SchemaMismatch as exc:
                raise SchemaMismatch(f"{file_path}: dialog at index {index}: {exc}") from exc


# The schema-guided envelope.  Keys a table does not name ride along in
# ``extras`` (a state's in ``state_extras``), so no annotation is dropped;
# what the native tables check again (the services, the slot values and
# the requested slots) is only given its container type here.
_SGD_STATE = row_checker((
    Field("slot_values", dict, {}),
    Field("requested_slots", list, []),
), rest="state_extras")
_SGD_FRAME = row_checker((
    Field("service", str, ""),
    Field("state", _SGD_STATE, {}),
    Field("service_results", list[dict], None, ("service_results", "search result for {service!r}")),
), rest="extras")
_SGD_TURN = row_checker((
    Field("speaker", str, None),
    Field("utterance", str, None),
    Field("frames", list[_SGD_FRAME], []),
), rest="extras")
_SGD_DIALOG = row_checker((
    Field("dialogue_id", str, None),
    Field("dialog_id", str, None),
    Field("services", list, []),
    Field("turns", list, labels=("dialog {dialogue_id!r} turns",)),
), "dialog {dialogue_id!r} has no {key!r} key", rest="extras")


def _schema_guided_row(obj: dict) -> dict:
    """The checked dialog row of a schema-guided dialog object, read as a native row."""
    if type(obj) is dict and not obj.get("dialogue_id") and obj.get("dialog_id"):
        obj = {**obj, "dialogue_id": obj["dialog_id"]}  # so that errors name the dialog by the id it has
    envelope = _SGD_DIALOG(obj)
    dialog_id = envelope.get("dialogue_id")
    if not dialog_id:
        raise SchemaMismatch("dialog without a dialogue_id")
    turns = []
    for index, raw_turn in enumerate(envelope["turns"]):
        try:
            raw_turn = _SGD_TURN(raw_turn)
        except SchemaMismatch as exc:
            raise SchemaMismatch(f"dialog {dialog_id!r} turn {index}: {exc}") from exc
        if "speaker" not in raw_turn or "utterance" not in raw_turn:
            raise SchemaMismatch(f"turn in {dialog_id!r} missing speaker/utterance")
        frames, results = [], []
        for raw_frame in raw_turn["frames"]:
            service, state, extras = raw_frame["service"], raw_frame["state"], raw_frame["extras"]
            if not service:
                raise SchemaMismatch(f"frame without service in dialog {dialog_id!r}")
            if state["state_extras"]:
                extras["state_extras"] = state["state_extras"]
            if "service_results" in raw_frame:  # kept raw, as the source wrote them
                extras["service_results"] = raw_frame["service_results"]
            for record in raw_frame.get("service_results", ()):
                results.append(_entity_row(service, record, guess_name_field(service, record),
                                           f"search result for {service!r}"))
            # Scalar slot values are taken as text; a value list of the wrong type is left to the native check.
            slot_values = {k: [str(v) for v in vs] if isinstance(vs, list) else vs
                           for k, vs in state["slot_values"].items()}
            frames.append({"service": service, "slot_values": slot_values,
                           "requested_slots": state["requested_slots"], "extras": extras})
        turn = {**raw_turn, "frames": frames}  # its speaker, utterance and extras
        if turn["speaker"] == SYSTEM and results:
            turn["search_results"] = results
        turns.append(turn)
    return dialog_row({"id": dialog_id, "services": envelope["services"], "turns": turns, "extras": envelope["extras"]})


# --- database -------------------------------------------------------------------


class Database:
    """Per-domain tables of entity rows plus the attribute designated as each name."""

    def __init__(self, tables: dict[str, list[dict]], name_fields: dict[str, str],
                 nouns: dict[str, str] | None = None):
        self.tables = tables
        self.name_fields = name_fields
        self.nouns = {} if nouns is None else nouns
        self._names: dict[str, frozenset[str]] = {}
        for domain, entities in self.tables.items():
            if domain not in self.name_fields:
                raise SchemaMismatch(f"domain {domain!r} has no declared name field")
            names = self._names[domain] = frozenset(name_key(e["name"]) for e in entities)
            # Two names the resolver reads as the same tokens would tie as exact matches.
            tokens = {name_text(e["name"]) for e in entities}
            if len(names) != len(entities) or len(tokens) != len(entities):
                raise SchemaMismatch(f"domain {domain!r} has duplicate entity names after normalization")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return (self.tables, self.name_fields, self.nouns) == (other.tables, other.name_fields, other.nouns)

    def noun(self, domain: str) -> str:
        """Singular noun for the domain's entity type, for surface realization."""
        if domain in self.nouns:
            return self.nouns[domain]
        base = domain.rsplit("_", 1)[0].replace("_", " ")
        return base[:-1] if base.endswith("s") and len(base) > 3 else base

    def names(self, domain: str) -> frozenset[str]:
        """Normalized entity names of a domain (empty for an unknown one)."""
        return self._names.get(domain, frozenset())


_DATABASE = row_checker((
    Field("name_fields", dict[str, str], labels=("name_fields", "name_fields[{key!r}]")),
    Field("nouns", dict[str, str], {}, ("nouns", "nouns[{key!r}]")),
    Field("tables", dict[str, list[dict]], labels=("tables", "tables[{key!r}]", "record in {key!r}")),
), "database needs 'name_fields' and 'tables' keys")


def load_database(path: str) -> Database:
    try:
        payload = _DATABASE(read_json(path))
    except SchemaMismatch as exc:
        raise SchemaMismatch(f"{path}: {exc}") from exc
    tables: dict[str, list[dict]] = {}
    for domain, records in payload["tables"].items():
        if domain not in payload["name_fields"]:
            raise SchemaMismatch(f"{path}: domain {domain!r} missing from name_fields")
        tables[domain] = [entity_row(_entity_row(domain, record, payload["name_fields"][domain],
                                                 f"{path}: record in {domain!r}")) for record in records]
    return Database(tables=tables, name_fields=payload["name_fields"], nouns=payload["nouns"])


def write_database(db: Database, path: str) -> None:
    tables = {
        domain: [_entity_record(e, db.name_fields[domain]) for e in entities]
        for domain, entities in db.tables.items()
    }
    payload = {"name_fields": db.name_fields, "nouns": db.nouns, "tables": tables}
    with staged_outputs(path) as (out,):
        out.write(json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=True) + "\n")


def sample_entities(db: Database, domain: str, n: int, seed: int) -> list[dict]:
    """Draw ``n`` distinct entity rows without replacement, deterministic per seed."""
    if domain not in db.tables:
        raise UnknownDomain(domain)
    table = db.tables[domain]
    if n > len(table):
        raise NotEnoughEntities(have=len(table), want=n)
    return random.Random(seed).sample(table, n)
