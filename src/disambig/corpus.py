"""Normalized data model for multi-domain task-oriented dialogs.

The native on-disk format is JSON lines: an optional first line
``{"meta": {"split_name": ..., "source_format": ...}}`` followed by one
dialog object per line.  Adapters turn SGD-style directories and
MultiWOZ-2.2-style JSON (both share the schema-guided envelope) into native
rows; fields the model does not cover ride along in opaque ``extras`` blobs,
so writing back is lossless.  Both formats go through ``Dialog.from_json``,
which keeps the lists and dicts ``json.loads`` built and checks each turn as
it is appended: a broken invariant or a container of the wrong type raises
SchemaMismatch (naming the file and line for JSONL, the file and the
dialog's index for SGD and MultiWOZ) instead of being coerced.

The per-domain entity store is a JSON document::

    {"name_fields": {"hotel": "name", ...},
     "nouns": {"hotel": "hotel", ...},            # optional
     "tables": {"hotel": [{"name": ..., "area": ...}, ...], ...}}

Corpus and Database instances are immutable after load, the adopted
containers included.  An operation that "modifies" a dialog returns a new
Dialog sharing every part it did not change (the augmenter rebuilds only the
turns it rewrites), so input and output are both read-only from then on.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import NotEnoughEntities, SchemaMismatch, UnknownDomain
from .jsonl import iter_jsonl, read_json, write_jsonl

USER = "USER"
SYSTEM = "SYSTEM"

_EDGE_PUNCT_RE = re.compile(r"^[^\w]+|[^\w]+$")
_WS_RE = re.compile(r"\s+")


def name_key(text: str) -> str:
    """Normalization used for entity-name uniqueness and value matching:
    lowercase, strip leading/trailing punctuation, collapse whitespace."""
    return _WS_RE.sub(" ", _EDGE_PUNCT_RE.sub("", text.strip().lower()))


@dataclass
class Entity:
    """One database row: a named entity plus its non-name attributes."""

    domain: str
    name: str
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _expect(self.name, str, "entity name")
        if not self.name:
            raise SchemaMismatch(f"entity in domain {self.domain!r} has an empty name")
        _expect(self.attributes, dict, f"entity {self.name!r} attributes")
        self.attributes = {k: str(v) for k, v in self.attributes.items()}

    def to_json(self) -> dict:
        return {"domain": self.domain, "name": self.name, "attributes": self.attributes}

    @classmethod
    def from_json(cls, obj: dict) -> "Entity":
        try:
            return cls(domain=obj["domain"], name=obj["name"], attributes=obj.get("attributes", {}))
        except KeyError as exc:
            raise SchemaMismatch(f"entity record missing key {exc}") from exc


@dataclass
class Frame:
    service: str
    slot_values: dict[str, list[str]] = field(default_factory=dict)
    requested_slots: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "service": self.service,
            "slot_values": self.slot_values,
            "requested_slots": self.requested_slots,
            "extras": self.extras,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Frame":
        return cls(service=obj["service"], slot_values=obj.get("slot_values", {}),
                   requested_slots=obj.get("requested_slots", []), extras=obj.get("extras", {}))


@dataclass
class Turn:
    speaker: str
    utterance: str
    frames: list[Frame] = field(default_factory=list)
    search_results: list[Entity] | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj: dict = {
            "speaker": self.speaker,
            "utterance": self.utterance,
            "frames": [f.to_json() for f in self.frames],
            "extras": self.extras,
        }
        if self.search_results is not None:
            obj["search_results"] = [e.to_json() for e in self.search_results]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Turn":
        results = obj.get("search_results")
        return cls(
            speaker=obj["speaker"],
            utterance=obj["utterance"],
            frames=[Frame.from_json(f) for f in obj.get("frames", [])],
            search_results=None if results is None else [Entity.from_json(e) for e in results],
            extras=obj.get("extras", {}),
        )


@dataclass
class Dialog:
    id: str
    services: list[str]
    turns: list[Turn]
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "services": self.services,
            "turns": [t.to_json() for t in self.turns],
            "extras": self.extras,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Dialog":
        """Decode a native row, adopting its containers and checking each turn as it is appended."""
        try:
            dialog = cls(id=obj["id"], services=obj["services"], turns=[], extras=obj.get("extras", {}))
            _expect(dialog.id, str, "dialog id")  # prediction keys, which must match it, are strings
            _expect(dialog.services, list, f"dialog {dialog.id!r} services")
            _expect(dialog.extras, dict, f"dialog {dialog.id!r} extras")
            for raw_turn in obj["turns"]:
                _append_turn(dialog, Turn.from_json(raw_turn))
            return dialog
        except KeyError as exc:
            raise SchemaMismatch(f"dialog record missing key {exc}") from exc


_KIND_NAMES = {list: "an array", dict: "an object", str: "a string", int: "an integer"}


def _expect(value, kind: type, what: str) -> None:
    """Raise SchemaMismatch unless ``value`` is a JSON value of ``kind`` (a bool is not an integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaMismatch(f"{what}: expected {_KIND_NAMES[kind]}, got {value!r:.60}")


def _append_turn(dialog: Dialog, turn: Turn) -> None:
    """Append ``turn`` to ``dialog``, or raise SchemaMismatch if it breaks an invariant there."""
    index = len(dialog.turns)
    where = f"dialog {dialog.id!r} turn {index}"
    if turn.speaker not in (USER, SYSTEM):
        raise SchemaMismatch(f"{where}: speaker {turn.speaker!r}")
    if index > 0 and turn.speaker == dialog.turns[-1].speaker:
        raise SchemaMismatch(f"{where}: speakers do not alternate")
    if turn.speaker == USER and turn.search_results is not None:
        raise SchemaMismatch(f"{where}: user turns cannot carry search results")
    _expect(turn.utterance, str, f"{where}: utterance")
    _expect(turn.extras, dict, f"{where}: extras")
    for frame in turn.frames:
        if frame.service not in dialog.services:
            raise SchemaMismatch(f"{where}: frame service {frame.service!r} not in dialog services")
        _expect(frame.requested_slots, list, f"{where}: requested_slots")
        _expect(frame.extras, dict, f"{where}: frame extras")
        for slot, values in frame.slot_values.items():
            if not slot:
                raise SchemaMismatch(f"{where}: empty slot name")
            _expect(values, list, f"{where}: slot {slot!r}")
            if any(not isinstance(v, str) or not v for v in values):
                raise SchemaMismatch(f"{where}: slot {slot!r} has an empty or non-string value")
    dialog.turns.append(turn)


SPLITS = ("train", "dev", "test")


@dataclass
class Corpus:
    dialogs: list[Dialog]
    split_name: str = "train"
    source_format: str = "native"


# --- native format ------------------------------------------------------------


def write_corpus(corpus: Corpus, path: str, format: str = "native") -> None:
    """Serialize a corpus; the native writer is the exact inverse of the loader."""
    if format == "native":
        meta = {"meta": {"split_name": corpus.split_name, "source_format": corpus.source_format}}
        write_jsonl(path, itertools.chain([meta], (d.to_json() for d in corpus.dialogs)))
    elif format in ("sgd", "multiwoz22"):
        payload = [_dialog_to_schema_guided(d) for d in corpus.dialogs]
        Path(path).write_text(_dumps_pretty(payload), encoding="utf-8")
    else:
        raise SchemaMismatch(f"unknown corpus format {format!r}")


def _dumps_pretty(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=1, sort_keys=True)


def load_corpus(path: str, format: str = "native") -> Corpus:
    """Load a corpus from any of the supported formats.  Each dialog is
    checked once, as it is decoded; a broken invariant raises SchemaMismatch."""
    if format == "native":
        corpus = Corpus(dialogs=[])
        rows = iter_jsonl(path, _native_row)
    elif format in ("sgd", "multiwoz22"):
        corpus = Corpus(dialogs=[], split_name=_infer_split(path), source_format=format)
        rows = _schema_guided_dialogs(path)
    else:
        raise SchemaMismatch(f"unknown corpus format {format!r}")
    seen_ids: set[str] = set()
    for index, row in enumerate(rows):
        if isinstance(row, Dialog):
            if row.id in seen_ids:
                raise SchemaMismatch(f"duplicate dialog id {row.id!r}")
            seen_ids.add(row.id)
            corpus.dialogs.append(row)
        elif index:
            raise SchemaMismatch(f"{path}: only the first row may be a meta header")
        else:
            corpus.split_name, corpus.source_format = row["split_name"], row["source_format"]
    return corpus


def _native_row(obj: dict) -> Dialog | dict:
    """A dialog, or the fields of a ``meta`` header row."""
    if "meta" not in obj:
        return Dialog.from_json(obj)
    meta = {"split_name": "train", "source_format": "native", **obj["meta"]}
    if meta["split_name"] not in SPLITS:
        raise SchemaMismatch(f"split_name {meta['split_name']!r} not one of {SPLITS}")
    return meta


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


def _result_row(service: str, record: dict) -> dict:
    """A ``service_results`` record as a native search-result row."""
    name_field = guess_name_field(service, record)
    if name_field not in record:
        raise SchemaMismatch(f"search result for {service!r} lacks its name field {name_field!r}")
    attributes = {k: v for k, v in record.items() if k != name_field}
    return {"domain": service, "name": str(record[name_field]), "attributes": attributes}


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


def _schema_guided_dialogs(path: str) -> Iterator[Dialog]:
    for file_path in _schema_guided_files(path):
        payload = read_json(str(file_path))
        if not isinstance(payload, list):
            raise SchemaMismatch(f"{file_path}: expected a list of dialogs")
        for index, obj in enumerate(payload):
            try:
                row = _native_dialog_row(obj, str(file_path))
            except (AttributeError, TypeError) as exc:  # a JSON value of the wrong type
                raise SchemaMismatch(f"{file_path}: dialog at index {index}: {exc}") from exc
            yield Dialog.from_json(row)


def _native_dialog_row(obj: dict, where: str) -> dict:
    """A schema-guided dialog as a native row, for Dialog.from_json to decode and check."""
    if "turns" not in obj:
        raise SchemaMismatch(f"{where}: dialog {obj.get('dialogue_id')!r} has no 'turns' key")
    dialog_id = obj.get("dialogue_id") or obj.get("dialog_id")
    if not dialog_id:
        raise SchemaMismatch(f"{where}: dialog without a dialogue_id")
    _expect(dialog_id, str, f"{where}: dialogue_id")
    turns = []
    for raw_turn in obj["turns"]:
        try:
            speaker, utterance = raw_turn["speaker"], raw_turn["utterance"]
        except (KeyError, TypeError) as exc:
            raise SchemaMismatch(f"{where}: turn in {dialog_id!r} missing speaker/utterance") from exc
        frames, results = [], []
        for raw_frame in raw_turn.get("frames", []):
            service = raw_frame.get("service")
            if not service:
                raise SchemaMismatch(f"{where}: frame without service in dialog {dialog_id!r}")
            state = raw_frame.get("state", {})
            # Scalar slot values are stringified; a value list of the wrong type is left to the check.
            slot_values = {k: [str(v) for v in vs] if isinstance(vs, list) else vs
                           for k, vs in state.get("slot_values", {}).items()}
            state_extras = {k: v for k, v in state.items() if k not in ("slot_values", "requested_slots")}
            frame_extras = {k: v for k, v in raw_frame.items() if k not in ("service", "state")}
            if state_extras:
                frame_extras["state_extras"] = state_extras
            results.extend(_result_row(service, record) for record in raw_frame.get("service_results", []))
            frames.append({"service": service, "slot_values": slot_values,
                           "requested_slots": state.get("requested_slots", []), "extras": frame_extras})
        turn = {"speaker": speaker, "utterance": utterance, "frames": frames,
                "extras": {k: v for k, v in raw_turn.items() if k not in ("speaker", "utterance", "frames")}}
        if speaker == SYSTEM and results:
            turn["search_results"] = results
        turns.append(turn)
    extras = {k: v for k, v in obj.items() if k not in ("dialogue_id", "dialog_id", "services", "turns")}
    return {"id": dialog_id, "services": obj.get("services", []), "turns": turns, "extras": extras}


def _entity_to_result(entity: Entity) -> dict:
    """A search result as a ``service_results`` record, with the name under
    the field ``_result_row`` reads it back from."""
    record = dict(entity.attributes)
    name_field = guess_name_field(entity.domain, {**record, "name": entity.name})
    if name_field in record:
        raise SchemaMismatch(
            f"search result {entity.name!r} of {entity.domain!r}: attribute {name_field!r} would read back as its name"
        )
    record[name_field] = entity.name
    return record


def _dialog_to_schema_guided(dialog: Dialog) -> dict:
    """The schema-guided form of a dialog.  Search results go into the
    ``service_results`` of a frame of their domain (a new frame when the turn
    has none), unless a frame read from such a file still carries them raw."""
    turns = []
    for index, turn in enumerate(dialog.turns):
        carried = {frame.service for frame in turn.frames if "service_results" in frame.extras}
        results: dict[str, list[dict]] = {}
        for entity in turn.search_results or []:
            if entity.domain not in carried:
                results.setdefault(entity.domain, []).append(_entity_to_result(entity))
        present = {frame.service for frame in turn.frames}
        added = [Frame(service=domain) for domain in results if domain not in present]
        for frame in added:
            if frame.service not in dialog.services:
                raise SchemaMismatch(f"dialog {dialog.id!r} turn {index}: search results of {frame.service!r}, "
                                     "which is not one of the dialog's services")
        frames = []
        for frame in turn.frames + added:
            state_extras = frame.extras.get("state_extras", {})
            raw_frame = {"service": frame.service}
            # Both formats give user frames a state and system frames none, unless it holds something.
            if turn.speaker == USER or frame.slot_values or frame.requested_slots or state_extras:
                raw_frame["state"] = {"slot_values": frame.slot_values, "requested_slots": frame.requested_slots,
                                      **state_extras}
            raw_frame.update({k: v for k, v in frame.extras.items() if k != "state_extras"})
            if frame.service in results:
                raw_frame["service_results"] = results.pop(frame.service)
            frames.append(raw_frame)
        raw_turn = {"speaker": turn.speaker, "utterance": turn.utterance, "frames": frames}
        raw_turn.update(turn.extras)
        turns.append(raw_turn)
    obj = {"dialogue_id": dialog.id, "services": dialog.services, "turns": turns}
    obj.update(dialog.extras)
    return obj


# --- database -------------------------------------------------------------------


@dataclass
class Database:
    """Per-domain entity tables plus the attribute designated as each name."""

    tables: dict[str, list[Entity]]
    name_fields: dict[str, str]
    nouns: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._names: dict[str, frozenset[str]] = {}
        for domain, entities in self.tables.items():
            if domain not in self.name_fields:
                raise SchemaMismatch(f"domain {domain!r} has no declared name field")
            keys = [name_key(e.name) for e in entities]
            self._names[domain] = frozenset(keys)
            if len(self._names[domain]) != len(keys):
                raise SchemaMismatch(f"domain {domain!r} has duplicate entity names after normalization")

    def noun(self, domain: str) -> str:
        """Singular noun for the domain's entity type, for surface realization."""
        if domain in self.nouns:
            return self.nouns[domain]
        base = domain.rsplit("_", 1)[0].replace("_", " ")
        return base[:-1] if base.endswith("s") and len(base) > 3 else base

    def names(self, domain: str) -> frozenset[str]:
        """Normalized entity names of a domain (empty for an unknown one)."""
        return self._names.get(domain, frozenset())


def load_database(path: str) -> Database:
    payload = read_json(path)
    try:
        name_fields = dict(payload["name_fields"])
        raw_tables = payload["tables"]
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"{path}: database needs 'name_fields' and 'tables' keys") from exc
    tables: dict[str, list[Entity]] = {}
    for domain, records in raw_tables.items():
        if domain not in name_fields:
            raise SchemaMismatch(f"{path}: domain {domain!r} missing from name_fields")
        name_field = name_fields[domain]
        entities = []
        for record in records:
            if name_field not in record:
                raise SchemaMismatch(f"{path}: record in {domain!r} lacks name field {name_field!r}")
            attributes = {k: v for k, v in record.items() if k != name_field}
            entities.append(Entity(domain=domain, name=str(record[name_field]), attributes=attributes))
        tables[domain] = entities
    return Database(tables=tables, name_fields=name_fields, nouns=dict(payload.get("nouns", {})))


def write_database(db: Database, path: str) -> None:
    tables = {
        domain: [{db.name_fields[domain]: e.name, **e.attributes} for e in entities]
        for domain, entities in db.tables.items()
    }
    payload = {"name_fields": db.name_fields, "nouns": db.nouns, "tables": tables}
    Path(path).write_text(_dumps_pretty(payload) + "\n", encoding="utf-8")


def sample_entities(db: Database, domain: str, n: int, seed: int) -> list[Entity]:
    """Draw ``n`` distinct entities without replacement, deterministic per seed."""
    if domain not in db.tables:
        raise UnknownDomain(domain)
    table = db.tables[domain]
    if n > len(table):
        raise NotEnoughEntities(have=len(table), want=n)
    return random.Random(seed).sample(table, n)
