"""Normalized data model for multi-domain task-oriented dialogs.

The native on-disk format is JSON lines: an optional first line
``{"meta": {"split_name": ..., "source_format": ...}}`` followed by one
dialog object per line.  Adapters turn SGD-style directories and
MultiWOZ-2.2-style JSON (both share the schema-guided envelope) into native
rows; fields the model does not cover ride along in opaque ``extras`` blobs,
so writing back is lossless.  Both formats go through ``dialog_row``, which
checks each turn as it is appended: a broken invariant or a container of the
wrong type raises SchemaMismatch (naming the file and line for JSONL, the
file and the dialog's index for SGD and MultiWOZ) instead of being coerced.
A dialog is a plain row ``{"id", "services", "turns", "extras"}``, and so
are its turns, their frames and their search results: each turn holds
``speaker``, ``utterance``, ``frames`` and ``extras``
(plus ``search_results`` when it has any), each frame ``service``,
``slot_values``, ``requested_slots`` and ``extras``, and each result
``domain``, ``name`` and ``attributes``.  The lists and dicts inside them are
the ones ``json.loads`` built, except that a result is an entity row made by
``entity_row``, and writing dumps the rows as they are.

An entity row is ``{"domain": str, "name": str, "attributes": {str: str}}``.
``entity_row`` is its one check: a string domain, a non-empty string name,
and attribute values copied as strings.  Search results, database tables,
synthesized candidates, augmentation pools and record targets are all entity
rows, and ``resolver.resolve`` and ``predict_names`` take lists of them.

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
from typing import Iterator, NamedTuple

from .errors import NotEnoughEntities, SchemaMismatch, UnknownDomain
from .jsonl import iter_jsonl, read_json, write_jsonl

USER = "USER"
SYSTEM = "SYSTEM"

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


_KIND_NAMES = {list: "an array", dict: "an object", str: "a string", int: "an integer"}


def _expect(value, kind: type, what: str) -> None:
    """Raise SchemaMismatch unless ``value`` is a JSON value of ``kind`` (a bool is not an integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaMismatch(f"{what}: expected {_KIND_NAMES[kind]}, got {value!r:.60}")


def entity_row(obj: dict) -> dict:
    """The entity row ``{"domain", "name", "attributes"}`` of ``obj``, checked:
    a string domain, a non-empty string name and an object of attributes
    (``{}`` when absent), whose values are copied as strings."""
    try:
        domain, name, attributes = obj["domain"], obj["name"], obj.get("attributes", {})
    except KeyError as exc:
        raise SchemaMismatch(f"entity record missing key {exc}") from exc
    # The exact types json.loads makes pass at once; anything else takes the
    # labelled checks, which raise in this order.
    if type(domain) is not str or type(name) is not str or not name or type(attributes) is not dict:
        _expect(domain, str, "entity domain")
        _expect(name, str, "entity name")
        if not name:
            raise SchemaMismatch(f"entity in domain {domain!r} has an empty name")
        _expect(attributes, dict, f"entity {name!r} attributes")
    return {"domain": domain, "name": name,
            "attributes": {k: v if type(v) is str else str(v) for k, v in attributes.items()}}


def dialog_row(obj: dict) -> dict:
    """The dialog row ``{"id", "services", "turns", "extras"}`` of a native
    row, adopting its containers and checking each turn as it is appended:
    a string id, an array of string services and an object of extras
    (``{}`` when absent)."""
    try:
        dialog = {"id": obj["id"], "services": obj["services"], "turns": [], "extras": obj.get("extras", {})}
        _expect(dialog["id"], str, "dialog id")  # prediction keys, which must match it, are strings
        _expect(dialog["services"], list, f"dialog {dialog['id']!r} services")
        for service in dialog["services"]:
            _expect(service, str, f"dialog {dialog['id']!r} service")
        _expect(dialog["extras"], dict, f"dialog {dialog['id']!r} extras")
        for raw_turn in obj["turns"]:
            _append_turn(dialog, raw_turn)
        return dialog
    except KeyError as exc:
        raise SchemaMismatch(f"dialog record missing key {exc}") from exc


def gold_marker(origin: str, method: str, target_names: list[str], candidates: list[dict]) -> dict:
    """The ``disambig`` marker of a system turn that lists ``candidates`` and
    whose user reply picks ``target_names`` by addressing ``method``; it is
    the gold label for scoring, and ``_append_turn`` checks it on load."""
    return {"origin": origin, "method": method, "target_names": target_names,
            "candidate_names": [e["name"] for e in candidates]}


def _append_turn(dialog: dict, raw: dict) -> None:
    """Append the turn row of ``raw`` to ``dialog``, or raise SchemaMismatch
    if it breaks an invariant there.  The row gets every key with its
    default, keeps the containers of ``raw`` and drops its unknown keys."""
    speaker, utterance = raw["speaker"], raw["utterance"]
    frames = [{"service": f["service"], "slot_values": f.get("slot_values", {}),
               "requested_slots": f.get("requested_slots", []), "extras": f.get("extras", {})}
              for f in raw.get("frames", [])]
    results = raw.get("search_results")
    if results is not None:
        results = [entity_row(e) for e in results]
    extras = raw.get("extras", {})
    turns = dialog["turns"]
    # A turn of the exact types json.loads makes, without a marker, passes
    # at once; any other turn takes the labelled checks of _check_turn.
    if not (speaker in (USER, SYSTEM) and not (turns and speaker == turns[-1]["speaker"])
            and (speaker == SYSTEM or results is None) and type(utterance) is str
            and type(extras) is dict and "disambig" not in extras
            and all(_plain_frame(frame, dialog["services"]) for frame in frames)):
        _check_turn(dialog, speaker, utterance, frames, results, extras)
    turn = {"speaker": speaker, "utterance": utterance, "frames": frames, "extras": extras}
    if results is not None:
        turn["search_results"] = results
    turns.append(turn)


def _plain_frame(frame: dict, services: list[str]) -> bool:
    """Whether ``frame`` is sure to pass ``_check_turn``'s frame checks."""
    slot_values = frame["slot_values"]
    return (frame["service"] in services and type(frame["requested_slots"]) is list
            and type(frame["extras"]) is dict and type(slot_values) is dict
            and all(slot and type(values) is list and all(type(v) is str and v for v in values)
                    for slot, values in slot_values.items()))


def _check_turn(dialog: dict, speaker, utterance, frames: list[dict], results: list[dict] | None, extras) -> None:
    """Raise SchemaMismatch, naming the dialog and the turn, at the first
    invariant that the next turn of ``dialog`` breaks."""
    index = len(dialog["turns"])
    where = f"dialog {dialog['id']!r} turn {index}"
    if speaker not in (USER, SYSTEM):
        raise SchemaMismatch(f"{where}: speaker {speaker!r}")
    if index > 0 and speaker == dialog["turns"][-1]["speaker"]:
        raise SchemaMismatch(f"{where}: speakers do not alternate")
    if speaker == USER and results is not None:
        raise SchemaMismatch(f"{where}: user turns cannot carry search results")
    _expect(utterance, str, f"{where}: utterance")
    _expect(extras, dict, f"{where}: extras")
    if "disambig" in extras:
        marker = extras["disambig"]
        _expect(marker, dict, f"{where}: disambig marker")
        _expect(marker.get("target_names"), list, f"{where}: marker target_names")
        for name in marker["target_names"]:
            _expect(name, str, f"{where}: marker target name")
        for key in ("method", "origin"):
            _expect(marker.get(key, ""), str, f"{where}: marker {key}")
    for frame in frames:
        if frame["service"] not in dialog["services"]:
            raise SchemaMismatch(f"{where}: frame service {frame['service']!r} not in dialog services")
        _expect(frame["requested_slots"], list, f"{where}: requested_slots")
        _expect(frame["extras"], dict, f"{where}: frame extras")
        for slot, values in frame["slot_values"].items():
            if not slot:
                raise SchemaMismatch(f"{where}: empty slot name")
            _expect(values, list, f"{where}: slot {slot!r}")
            if any(not isinstance(v, str) or not v for v in values):
                raise SchemaMismatch(f"{where}: slot {slot!r} has an empty or non-string value")


SPLITS = ("train", "dev", "test")


class Corpus(NamedTuple):
    dialogs: list[dict]
    split_name: str = "train"
    source_format: str = "native"


# --- native format ------------------------------------------------------------


def write_corpus(corpus: Corpus, path: str, format: str = "native") -> None:
    """Serialize a corpus; the native writer is the exact inverse of the loader."""
    if format == "native":
        meta = {"meta": {"split_name": corpus.split_name, "source_format": corpus.source_format}}
        write_jsonl(path, itertools.chain([meta], corpus.dialogs))
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
        split_name, source_format = "train", "native"
        rows = iter_jsonl(path, _native_row)
    elif format in ("sgd", "multiwoz22"):
        split_name, source_format = _infer_split(path), format
        rows = _schema_guided_dialogs(path)
    else:
        raise SchemaMismatch(f"unknown corpus format {format!r}")
    dialogs: list[dict] = []
    seen_ids: set[str] = set()
    for index, row in enumerate(rows):
        match row:
            case (split_name, source_format):  # the meta header, whose values replace the defaults
                if index:
                    raise SchemaMismatch(f"{path}: only the first row may be a meta header")
            case _:
                if row["id"] in seen_ids:
                    raise SchemaMismatch(f"duplicate dialog id {row['id']!r}")
                seen_ids.add(row["id"])
                dialogs.append(row)
    return Corpus(dialogs=dialogs, split_name=split_name, source_format=source_format)


def _native_row(obj: dict) -> dict | tuple[str, str]:
    """A dialog row, or the ``(split_name, source_format)`` of a ``meta`` header row."""
    if "meta" not in obj:
        return dialog_row(obj)
    meta = {"split_name": "train", "source_format": "native", **obj["meta"]}
    if meta["split_name"] not in SPLITS:
        raise SchemaMismatch(f"split_name {meta['split_name']!r} not one of {SPLITS}")
    return meta["split_name"], meta["source_format"]


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
    _expect(record, dict, where)
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


def _schema_guided_dialogs(path: str) -> Iterator[dict]:
    for file_path in _schema_guided_files(path):
        payload = read_json(str(file_path))
        if not isinstance(payload, list):
            raise SchemaMismatch(f"{file_path}: expected a list of dialogs")
        for index, obj in enumerate(payload):
            where = f"{file_path}: dialog at index {index}"
            try:
                row = _native_dialog_row(obj, str(file_path))  # its own errors name the file
            except (AttributeError, TypeError) as exc:  # a JSON value of the wrong type
                raise SchemaMismatch(f"{where}: {exc}") from exc
            try:
                dialog = dialog_row(row)
            except SchemaMismatch as exc:
                raise SchemaMismatch(f"{where}: {exc}") from exc
            yield dialog


def _native_dialog_row(obj: dict, where: str) -> dict:
    """A schema-guided dialog as a native row, for ``dialog_row`` to check."""
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
            label = f"search result for {service!r}"
            results.extend(_entity_row(service, record, guess_name_field(service, record), label)
                           for record in raw_frame.get("service_results", []))
            frames.append({"service": service, "slot_values": slot_values,
                           "requested_slots": state.get("requested_slots", []), "extras": frame_extras})
        turn = {"speaker": speaker, "utterance": utterance, "frames": frames,
                "extras": {k: v for k, v in raw_turn.items() if k not in ("speaker", "utterance", "frames")}}
        if speaker == SYSTEM and results:
            turn["search_results"] = results
        turns.append(turn)
    extras = {k: v for k, v in obj.items() if k not in ("dialogue_id", "dialog_id", "services", "turns")}
    return {"id": dialog_id, "services": obj.get("services", []), "turns": turns, "extras": extras}


def _dialog_to_schema_guided(dialog: dict) -> dict:
    """The schema-guided form of a dialog.  Search results go into the
    ``service_results`` of a frame of their domain (a new frame when the turn
    has none), unless a frame read from such a file still carries them raw."""
    turns = []
    for index, turn in enumerate(dialog["turns"]):
        carried = {frame["service"] for frame in turn["frames"] if "service_results" in frame["extras"]}
        results: dict[str, list[dict]] = {}
        for entity in turn.get("search_results", []):
            if entity["domain"] not in carried:
                name_field = guess_name_field(entity["domain"], {**entity["attributes"], "name": entity["name"]})
                results.setdefault(entity["domain"], []).append(_entity_record(entity, name_field))
        present = {frame["service"] for frame in turn["frames"]}
        added = [{"service": domain, "slot_values": {}, "requested_slots": [], "extras": {}}
                 for domain in results if domain not in present]
        for frame in added:
            if frame["service"] not in dialog["services"]:
                raise SchemaMismatch(f"dialog {dialog['id']!r} turn {index}: search results of {frame['service']!r}, "
                                     "which is not one of the dialog's services")
        frames = []
        for frame in turn["frames"] + added:
            state_extras = frame["extras"].get("state_extras", {})
            raw_frame = {"service": frame["service"]}
            # Both formats give user frames a state and system frames none, unless it holds something.
            if turn["speaker"] == USER or frame["slot_values"] or frame["requested_slots"] or state_extras:
                raw_frame["state"] = {"slot_values": frame["slot_values"],
                                      "requested_slots": frame["requested_slots"], **state_extras}
            raw_frame.update({k: v for k, v in frame["extras"].items() if k != "state_extras"})
            if frame["service"] in results:
                raw_frame["service_results"] = results.pop(frame["service"])
            frames.append(raw_frame)
        raw_turn = {"speaker": turn["speaker"], "utterance": turn["utterance"], "frames": frames}
        raw_turn.update(turn["extras"])
        turns.append(raw_turn)
    obj = {"dialogue_id": dialog["id"], "services": dialog["services"], "turns": turns}
    obj.update(dialog["extras"])
    return obj


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


def load_database(path: str) -> Database:
    payload = read_json(path)
    try:
        name_fields, raw_tables = payload["name_fields"], payload["tables"]
    except (KeyError, TypeError) as exc:
        raise SchemaMismatch(f"{path}: database needs 'name_fields' and 'tables' keys") from exc
    nouns = payload.get("nouns", {})
    for key, mapping in (("name_fields", name_fields), ("nouns", nouns), ("tables", raw_tables)):
        _expect(mapping, dict, f"{path}: {key}")
        for domain, value in mapping.items():
            _expect(value, list if key == "tables" else str, f"{path}: {key}[{domain!r}]")
    tables: dict[str, list[dict]] = {}
    for domain, records in raw_tables.items():
        if domain not in name_fields:
            raise SchemaMismatch(f"{path}: domain {domain!r} missing from name_fields")
        where = f"{path}: record in {domain!r}"
        tables[domain] = [entity_row(_entity_row(domain, record, name_fields[domain], where)) for record in records]
    return Database(tables=tables, name_fields=name_fields, nouns=nouns)


def write_database(db: Database, path: str) -> None:
    tables = {
        domain: [_entity_record(e, db.name_fields[domain]) for e in entities]
        for domain, entities in db.tables.items()
    }
    payload = {"name_fields": db.name_fields, "nouns": db.nouns, "tables": tables}
    Path(path).write_text(_dumps_pretty(payload) + "\n", encoding="utf-8")


def sample_entities(db: Database, domain: str, n: int, seed: int) -> list[dict]:
    """Draw ``n`` distinct entity rows without replacement, deterministic per seed."""
    if domain not in db.tables:
        raise UnknownDomain(domain)
    table = db.tables[domain]
    if n > len(table):
        raise NotEnoughEntities(have=len(table), want=n)
    return random.Random(seed).sample(table, n)
