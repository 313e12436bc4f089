"""Inject option-list disambiguation exchanges into full dialogs.

For every eligible system turn (multiple same-domain search results whose
suggestion the user then accepts), the system utterance is replaced by a
grammar-generated question listing 3-5 candidates that include the accepted
entity, and the following user utterance gains a generated choice prefix
naming that same entity.  Frames, states, and every other turn are left
byte-identical, so downstream annotations stay consistent.  Modified system
turns carry a ``disambig`` marker in their extras, which doubles as the
idempotence guard and as the gold label for scoring.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import NamedTuple

from .corpus import SYSTEM, Corpus, Database, entity_row, gold_marker, name_key
from .errors import SchemaMismatch
from .grammar import Grammar
from .jsonl import Field, iter_jsonl, once_per_key, row_checker, write_jsonl
from .seeding import rng_for
from .synthesizer import CANDIDATE_COUNTS, AddressingMethod, build_exchange

# Domains eligible for augmentation: only those whose entries name a specific
# target entity (a hotel, a movie, ...), never request-any domains like taxi.
MULTIWOZ_ALLOWED_DOMAINS = frozenset({"restaurant", "hotel", "attraction"})
SGD_ALLOWED_SERVICES = frozenset({
    "events_1", "events_3",
    "homes_1", "homes_2",
    "hotels_1", "hotels_3", "hotels_4",
    "media_1", "media_2", "media_3",
    "messaging_1",
    "movies_1", "movies_2", "movies_3",
    "music_1", "music_2", "music_3",
    "restaurants_1", "restaurants_2",
    "services_1", "services_2", "services_3", "services_4",
    "travel_1",
})
DEFAULT_ALLOWED = MULTIWOZ_ALLOWED_DOMAINS | SGD_ALLOWED_SERVICES

AUGMENT_METHODS = (
    AddressingMethod.EXACT,
    AddressingMethod.POSITIONAL,
    AddressingMethod.PARTIAL,
    AddressingMethod.TYPO,
    AddressingMethod.ATTRIBUTE,
)

_SENTENCE_FINAL = (".", "!", "?")

SKIP_NOT_ENOUGH_ENTITIES = "not_enough_entities"


class AugmentationRecord(NamedTuple):
    """Provenance of one modified (or skipped) turn."""

    dialog_id: str
    turn_index: int
    original_system: str
    new_system: str
    user_prefix: str
    original_user: str
    candidates: list[dict]
    target: dict
    skipped_reason: str | None = None

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, obj: dict) -> "AugmentationRecord":
        return cls(**_RECORD_ROW(obj))


_RECORD_ROW = row_checker((
    Field("dialog_id", str),
    Field("turn_index", int),
    Field("user_prefix", str),
    Field("skipped_reason", str, None),
    Field("original_system", str),
    Field("new_system", str),
    Field("original_user", str),
    Field("candidates", list[entity_row]),
    Field("target", entity_row),
))


def _state_first_seen(dialog: dict) -> dict[str, int]:
    """First turn index at which each normalized slot value appears."""
    first_seen: dict[str, int] = {}
    for index, turn in enumerate(dialog["turns"]):
        for frame in turn["frames"]:
            for values in frame["slot_values"].values():
                for value in values:
                    first_seen.setdefault(name_key(value), index)
    return first_seen


def find_augmentable_turns(
    dialog: dict, db: Database, allowed: frozenset[str] | set[str] = DEFAULT_ALLOWED
) -> list[tuple[int, list[dict], dict]]:
    """System turns where an option list can replace the suggestion.

    A turn qualifies when it surfaces at least two same-domain results from
    an allowed domain and the immediately following user turn accepts one of
    them, detected as that entity's name entering the dialog state at or
    after the user turn.  Turns where the user makes no choice, where the
    accepted entity is missing from the database, or that end the dialog are
    filtered out, as are turns already carrying an augmentation marker.
    When several domains qualify, the first by name is taken, so the choice
    does not hang on the order of the results (which an SGD or MultiWOZ
    round trip regroups by frame).  Each pool is a list of the turn's own
    entity rows.
    """
    first_seen = _state_first_seen(dialog)
    found: list[tuple[int, list[dict], dict]] = []
    for index, turn in enumerate(dialog["turns"]):
        if turn["speaker"] != SYSTEM or not turn.get("search_results"):
            continue
        if index + 1 >= len(dialog["turns"]):
            continue  # the dialog's final turn: no user reply to stay consistent with
        if "disambig" in turn["extras"]:
            continue  # already augmented
        by_domain: dict[str, list[dict]] = {}
        for row in turn["search_results"]:
            by_domain.setdefault(row["domain"], []).append(row)
        for domain, rows in sorted(by_domain.items()):
            if domain not in allowed or len(rows) < 2:
                continue
            accepted = _accepted_entity(rows, first_seen, user_turn_index=index + 1)
            if accepted is None:
                continue  # the user made no (single) choice here
            if name_key(rows[accepted]["name"]) not in db.names(domain):
                continue  # offered entity absent from the database
            found.append((index, rows, rows[accepted]))
            break
    return found


def _accepted_entity(rows: list[dict], first_seen: dict[str, int], user_turn_index: int) -> int | None:
    """The position in ``rows`` of the offer whose name enters the state
    first at or after the user turn, or None when there is no single one."""
    entries = []
    for position, row in enumerate(rows):
        seen_at = first_seen.get(name_key(row["name"]))
        if seen_at is not None and seen_at >= user_turn_index:
            entries.append((seen_at, position))
    if not entries:
        return None
    entries.sort(key=lambda pair: pair[0])
    if len(entries) > 1 and entries[0][0] == entries[1][0]:
        return None  # two offers enter the state together: no clear single choice
    return entries[0][1]


def _ensure_sentence_final(text: str) -> str:
    return text if text.endswith(_SENTENCE_FINAL) else text + "."


def augment_dialog(
    dialog: dict,
    db: Database,
    grammar: Grammar,
    seed: int,
    allowed: frozenset[str] | set[str] = DEFAULT_ALLOWED,
    methods: tuple[AddressingMethod, ...] = (AddressingMethod.EXACT,),
) -> tuple[dict, list[AugmentationRecord]]:
    """Rewrite every augmentable turn of one dialog; pure in its arguments.

    The returned dialog is a new row, ``{**dialog, "turns": turns}``, that
    shares its id, services, extras and every turn it does not rewrite (with
    those turns' frames and entities) with the input; only the ``turns``
    list, and the system turn and the user turn after it at each applied
    augmentation, are new.  Input and output are both read-only from then on.
    Dialogs without augmentable turns come back equal to the input.  A turn
    whose domain table is too small is skipped with a reason, never a hard
    failure.
    """
    for method in methods:
        if method not in AUGMENT_METHODS:
            raise SchemaMismatch(f"method {method.value!r} cannot voice a single accepted entity")
    found = find_augmentable_turns(dialog, db, allowed)
    turns = list(dialog["turns"])
    records: list[AugmentationRecord] = []
    for turn_index, pool, accepted in found:
        base = (dialog["id"], turn_index, seed)
        system_turn = turns[turn_index]
        user_turn = turns[turn_index + 1]
        count = rng_for("augment.count", *base).choice(CANDIDATE_COUNTS)
        accepted_key = name_key(accepted["name"])
        others = [e for e in db.tables[accepted["domain"]] if name_key(e["name"]) != accepted_key]
        skipped_reason = SKIP_NOT_ENOUGH_ENTITIES if len(others) < count - 1 else None
        candidates, new_system, prefix = pool, system_turn["utterance"], ""
        if skipped_reason is None:
            fill_rng = rng_for("augment.fill", *base)
            candidates = fill_rng.sample(others, count - 1)
            position = fill_rng.randrange(count)
            candidates.insert(position, accepted)
            method = methods[rng_for("augment.method", *base).randrange(len(methods))]
            new_system, answer = build_exchange(
                grammar, candidates, [position], method, db.noun(accepted["domain"]), "augment", base
            )
            prefix = _ensure_sentence_final(answer)
            marker = {**gold_marker("augment", method.value, [accepted["name"]], candidates), "user_prefix": prefix}
            turns[turn_index] = {**system_turn, "utterance": new_system,
                                 "extras": {**system_turn["extras"], "disambig": marker}}
            turns[turn_index + 1] = {**user_turn, "utterance": prefix + " " + user_turn["utterance"],
                                     "extras": dict(user_turn["extras"])}
        records.append(AugmentationRecord(
            dialog_id=dialog["id"],
            turn_index=turn_index,
            original_system=system_turn["utterance"],
            new_system=new_system,
            user_prefix=prefix,
            original_user=user_turn["utterance"],
            candidates=candidates,
            target=accepted,
            skipped_reason=skipped_reason,
        ))
    return {**dialog, "turns": turns}, records


def augment_corpus(
    corpus: Corpus,
    db: Database,
    grammar: Grammar,
    seed: int,
    allowed: frozenset[str] | set[str] = DEFAULT_ALLOWED,
    methods: tuple[AddressingMethod, ...] = (AddressingMethod.EXACT,),
) -> tuple[Corpus, list[AugmentationRecord], dict]:
    """Per-dialog augmentation plus corpus-level statistics, as the JSON
    object ``{"dialogs_total", "dialogs_modified", "turns_total",
    "turns_modified", "per_domain"}``.

    Each dialog derives its own seeds from its id, so its output does not
    depend on the rest of the corpus.
    """
    stats = {"dialogs_total": len(corpus.dialogs), "dialogs_modified": 0, "turns_total": 0, "turns_modified": 0,
             "per_domain": {}}
    new_dialogs: list[dict] = []
    all_records: list[AugmentationRecord] = []
    for dialog in corpus.dialogs:
        new_dialog, records = augment_dialog(dialog, db, grammar, seed, allowed, methods)
        new_dialogs.append(new_dialog)
        all_records.extend(records)
        applied = Counter(r.target["domain"] for r in records if r.skipped_reason is None)
        stats["turns_total"] += len(dialog["turns"])
        stats["turns_modified"] += applied.total()
        stats["dialogs_modified"] += bool(applied)
        for domain, turns_modified in applied.items():
            domain_stats = stats["per_domain"].setdefault(domain, {"dialogs_modified": 0, "turns_modified": 0})
            domain_stats["dialogs_modified"] += 1
            domain_stats["turns_modified"] += turns_modified
    new_corpus = Corpus(dialogs=new_dialogs, split_name=corpus.split_name, source_format=corpus.source_format)
    return new_corpus, all_records, stats


def multi_result_report(corpus: Corpus) -> dict:
    """Fraction of dialogs containing a turn with >= 2 search results.

    The per-service fraction counts, among dialogs that involve a service,
    those with a multi-result turn of that same service.
    """
    dialogs_multi = 0
    service_totals: Counter[str] = Counter()
    service_multi: Counter[str] = Counter()
    for dialog in corpus.dialogs:
        service_totals.update(set(dialog["services"]))
        multi_services = set()
        for turn in dialog["turns"]:
            results = turn.get("search_results", [])
            if len(results) >= 2:
                multi_services.update(entity["domain"] for entity in results)
        dialogs_multi += bool(multi_services)
        service_multi.update(multi_services)
    overall = dialogs_multi / len(corpus.dialogs) if corpus.dialogs else 0.0
    per_service = {
        service: service_multi[service] / total
        for service, total in sorted(service_totals.items())
    }
    return {"dialogs_total": len(corpus.dialogs), "overall": overall, "per_service": per_service}


def write_records(records: list[AugmentationRecord], path: str) -> None:
    write_jsonl(path, (record.to_json() for record in records))


def read_records(path: str) -> list[AugmentationRecord]:
    """The records of ``path``; a repeated (dialog_id, turn_index) is refused
    with its line, as two records cannot both describe one turn."""
    key = attrgetter("dialog_id", "turn_index")
    return list(iter_jsonl(path, once_per_key(AugmentationRecord.from_json, key, "record key")))
