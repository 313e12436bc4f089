"""Score prediction files against gold corpora.

Two metrics: name-entity accuracy (set equality of predicted and gold
target names per turn, so multi-selection turns are all-or-nothing) and
joint goal accuracy (a turn counts only when every gold slot's value set is
matched exactly).  Gold entity targets come from the ``disambig`` markers
that synthesis and augmentation leave in system-turn extras; turns without
a marker carry no entity decision and are skipped, with the skip count
reported.  Two judges compare predictions with gold: ``_entity_hits`` per
marked turn and ``_slot_hits`` per user turn.  ``score`` judges each gold
turn once and every bucket of its report averages a selection of that
judgement.  Predictions are the rows of their JSONL file, checked by
``prediction_row`` and keyed by ``(dialog_id, turn_index)``."""

from __future__ import annotations

from operator import itemgetter

from .corpus import USER, Corpus, name_key, name_text
from .errors import MissingPrediction, SchemaMismatch, UnknownSubsetTurn
from .jsonl import Field, iter_jsonl, once_per_key, row_checker, write_jsonl

ALL = "ALL"
AUGMENTED_ONLY = "AUGMENTED_ONLY"

Key = tuple[str, int]


# The prediction row: ``dialog_id``, ``turn_index``, ``entities`` ([] when
# absent) and, when it has one, ``state``.  Its types are checked, not coerced.
prediction_row = row_checker((
    Field("dialog_id", str),
    Field("turn_index", int),
    Field("entities", list[str], []),
    Field("state", dict[str, list[str]], None, ("state", "state slot {key!r}", "state slot {key!r} value")),
))


PredictionFile = dict[Key, dict]
_prediction_key = itemgetter("dialog_id", "turn_index")


def read_predictions(path: str) -> PredictionFile:
    """The prediction rows of ``path`` by key; a repeated (dialog_id,
    turn_index) is refused with its line."""
    rows = iter_jsonl(path, once_per_key(prediction_row, _prediction_key, "prediction key"))
    return {_prediction_key(row): row for row in rows}


def write_predictions(rows: list[dict], path: str) -> None:
    write_jsonl(path, rows)


def gold_entity_turns(gold: Corpus, origin: str | None = None) -> dict[Key, set[str]]:
    """Turns with a defined gold target set, as normalized name sets."""
    turns: dict[Key, set[str]] = {}
    for dialog in gold.dialogs:
        for index, turn in enumerate(dialog["turns"]):
            marker = turn["extras"].get("disambig")
            if not marker:
                continue
            if origin is not None and marker.get("origin") != origin:
                continue
            turns[(dialog["id"], index)] = {name_text(n) for n in marker["target_names"]}
    return turns


def gold_states(gold: Corpus) -> dict[Key, dict[str, set[str]]]:
    """Per-user-turn gold dialog state: slot name -> normalized value set."""
    states: dict[Key, dict[str, set[str]]] = {}
    for dialog in gold.dialogs:
        for index, turn in enumerate(dialog["turns"]):
            if turn["speaker"] != USER:
                continue
            state: dict[str, set[str]] = {}
            for frame in turn["frames"]:
                for slot, values in frame["slot_values"].items():
                    state.setdefault(slot, set()).update(name_key(v) for v in values)
            states[(dialog["id"], index)] = state
    return states


def _select(table: dict, subset, gold: Corpus, turn_offset: int = 0) -> dict:
    """The rows of ``table`` named by ``subset``.

    ``subset`` is ALL, AUGMENTED_ONLY (the turns whose marker came from the
    augmenter, each shifted by ``turn_offset`` and kept when ``table`` has
    it) or an iterable of keys, each of which must be in ``table``.
    """
    if subset == ALL:
        return table
    if subset == AUGMENTED_ONLY:
        keys = [(dialog_id, index + turn_offset) for dialog_id, index in gold_entity_turns(gold, origin="augment")]
        return {key: table[key] for key in keys if key in table}
    if isinstance(subset, str):
        raise ValueError(f"unknown subset {subset!r}: expected ALL, AUGMENTED_ONLY or an iterable of keys")
    chosen = {}
    for key in subset:
        if key not in table:
            raise UnknownSubsetTurn(key)
        chosen[key] = table[key]
    return chosen


def _entity_hits(preds: PredictionFile, targets: dict[Key, set[str]]) -> dict[Key, bool]:
    """Per turn, in key order: whether the predicted name set equals gold."""
    hits: dict[Key, bool] = {}
    for key, gold_names in sorted(targets.items()):
        if key not in preds:
            raise MissingPrediction(key)
        hits[key] = {name_text(n) for n in preds[key]["entities"]} == gold_names
    return hits


def _slot_hits(preds: PredictionFile, states: dict[Key, dict[str, set[str]]]) -> dict[Key, tuple[int, int]]:
    """Per user turn, in key order: (gold slots predicted exactly, gold slots).
    Extra predicted slots do not score either way."""
    hits: dict[Key, tuple[int, int]] = {}
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].get("state") is None:
            raise MissingPrediction(key)
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key]["state"].items()}
        hits[key] = (sum(predicted.get(slot) == values for slot, values in gold_state.items()), len(gold_state))
    return hits


def _joint(slots: dict[Key, tuple[int, int]]) -> float:
    return sum(right == total for right, total in slots.values()) / len(slots)


def entity_accuracy(preds: PredictionFile, gold: Corpus, subset=ALL) -> float:
    """Mean over subset turns of exact (normalized) target-set equality."""
    hits = _entity_hits(preds, _select(gold_entity_turns(gold), subset, gold))
    if not hits:
        raise SchemaMismatch("no gold turns define an entity target in this subset")
    return sum(hits.values()) / len(hits)


def joint_goal_accuracy(preds: PredictionFile, gold: Corpus, subset=ALL) -> float:
    """Mean over user turns of all-or-nothing state correctness.

    ``subset`` is ALL (every user turn), AUGMENTED_ONLY (the user turn right
    after each augmented system turn) or an iterable of keys.  A turn counts
    when every gold slot's value set is reproduced exactly.
    """
    slots = _slot_hits(preds, _select(gold_states(gold), subset, gold, turn_offset=1))
    if not slots:
        raise SchemaMismatch("no gold turns carry a dialog state in this subset")
    return _joint(slots)


def slot_accuracy(preds: PredictionFile, gold: Corpus, subset=ALL) -> float:
    """Per-slot partial credit: each turn scores the fraction of its gold
    slots predicted exactly, averaged over turns.  Because a turn's
    all-or-nothing score never exceeds its fraction correct, JGA <= this."""
    slots = _slot_hits(preds, _select(gold_states(gold), subset, gold, turn_offset=1))
    fractions = [right / total if total else 1.0 for right, total in slots.values()]
    return sum(fractions) / len(fractions) if fractions else 1.0


def score(preds: PredictionFile, gold: Corpus, records: list[AugmentationRecord] | None = None) -> dict:
    """The report of all four headline numbers plus bucket counts, as a JSON
    object: ``entity_accuracy_all``, ``entity_accuracy_augmented``,
    ``jga_all``, ``jga_augmented``, ``per_method`` and ``counts``.

    The augmented-only bucket is exactly the turn indices in ``records``
    when given (skipped records excluded), otherwise every turn whose marker
    came from the augmenter.  Buckets that do not apply stay None.
    """
    report: dict = {"entity_accuracy_all": None, "entity_accuracy_augmented": None,
                    "jga_all": None, "jga_augmented": None, "per_method": None, "counts": {}}
    dialogs = {dialog["id"]: dialog for dialog in gold.dialogs}
    if len(dialogs) != len(gold.dialogs):
        raise SchemaMismatch("gold corpus has duplicate dialog ids")
    for key in preds:
        if key[0] not in dialogs or not 0 <= key[1] < len(dialogs[key[0]]["turns"]):
            raise UnknownSubsetTurn(key)
    # One scan of the gold corpus and one judgement per turn; every bucket
    # below is the mean of a selection from that judgement.
    hits = _entity_hits(preds, gold_entity_turns(gold))
    markers = {key: dialogs[key[0]]["turns"][key[1]]["extras"]["disambig"] for key in hits}
    total_turns = sum(len(dialog["turns"]) for dialog in dialogs.values())
    report["counts"]["turns_total"] = total_turns
    report["counts"]["turns_with_gold_targets"] = len(hits)
    report["counts"]["turns_skipped_no_target"] = total_turns - len(hits)

    if hits:
        report["entity_accuracy_all"] = sum(hits.values()) / len(hits)
        by_method: dict[str, list[bool]] = {}
        for key, marker in markers.items():
            if marker.get("method"):
                by_method.setdefault(marker["method"], []).append(hits[key])
        report["per_method"] = {method: sum(bucket) / len(bucket) for method, bucket in sorted(by_method.items())}

    if records is not None:
        augmented_keys = [(r.dialog_id, r.turn_index) for r in records if r.skipped_reason is None]
    else:
        augmented_keys = [key for key, marker in markers.items() if marker.get("origin") == "augment"]
    report["counts"]["turns_augmented"] = len(augmented_keys)
    if augmented_keys:
        augmented = _select(hits, augmented_keys, gold)
        report["entity_accuracy_augmented"] = sum(augmented.values()) / len(augmented)

    # Prediction files without any state (``resolve`` never writes one) get
    # no joint goal accuracy, so the gold states are not built for them.
    if not any(row.get("state") is not None for row in preds.values()):
        return report
    states = gold_states(gold)
    if states and all(key in preds and preds[key].get("state") is not None for key in states):
        slots = _slot_hits(preds, states)
        report["jga_all"] = _joint(slots)
        user_keys = [(d, t + 1) for d, t in augmented_keys if (d, t + 1) in slots]
        if user_keys:
            report["jga_augmented"] = _joint(_select(slots, user_keys, gold))
    return report
