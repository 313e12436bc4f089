"""Score prediction files against gold corpora.

Two metrics: name-entity accuracy (set equality of predicted and gold
target names per turn, so multi-selection turns are all-or-nothing) and
joint goal accuracy (a turn counts only when every gold slot's value set is
matched exactly).  Gold entity targets come from the ``disambig`` markers
that synthesis and augmentation leave in system-turn extras; turns without
a marker carry no entity decision and are skipped, with the skip count
reported.  Two judges compare predictions with gold: ``_entity_hits`` per
marked turn and ``_slot_hits`` per user turn.

Gold is read in one place: ``gold_index`` builds a ``GoldIndex`` in one
pass over the dialogs without keeping them, and ``score``, the three
accuracy functions and the ``gold_entity_turns`` and ``gold_states`` views
each read their corpus through it once, so any of them takes a corpus
whose dialogs can be read only once, such as ``corpus.read_corpus`` gives.
``score`` judges each gold turn once and every bucket of its report
averages a selection of that judgement.  Predictions are the rows of their
JSONL file, checked by ``prediction_row`` and keyed by
``(dialog_id, turn_index)``."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

from .augmenter import AugmentationRecord
from .corpus import USER, Corpus, name_key, name_text
from .errors import SchemaMismatch
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


def _target_set(marker: dict) -> set[str]:
    """The normalized gold target names of a ``disambig`` marker."""
    return {name_text(n) for n in marker["target_names"]}


def _user_state(turn: dict) -> dict[str, set[str]]:
    """The gold dialog state of a user turn: slot name -> normalized value set."""
    state: dict[str, set[str]] = {}
    for frame in turn["frames"]:
        for slot, values in frame["slot_values"].items():
            state.setdefault(slot, set()).update(name_key(v) for v in values)
    return state


class GoldIndex(NamedTuple):
    """What the metrics read of a gold corpus."""

    turns: dict[str, int]  # each dialog's turn count, by id
    targets: dict[Key, set[str]]  # each marked turn's normalized target names
    markers: dict[Key, tuple[str | None, str | None]]  # each marked turn's (method, origin)
    states: dict[Key, dict[str, set[str]]] | None  # each user turn's state, when asked for


def gold_index(dialogs: Iterable[dict], states: bool = False) -> GoldIndex:
    """The index of gold ``dialogs``, read in one pass without keeping them;
    the one reader of gold dialogs here.  User-turn states are kept only
    when ``states`` is true.  A repeated dialog id is refused.
    """
    turns: dict[str, int] = {}
    targets: dict[Key, set[str]] = {}
    markers: dict[Key, tuple[str | None, str | None]] = {}
    user_states: dict[Key, dict[str, set[str]]] | None = {} if states else None
    for dialog in dialogs:
        dialog_id = dialog["id"]
        if dialog_id in turns:
            raise SchemaMismatch("gold corpus has duplicate dialog ids")
        turns[dialog_id] = len(dialog["turns"])
        for index, turn in enumerate(dialog["turns"]):
            marker = turn["extras"].get("disambig")
            if marker:
                targets[(dialog_id, index)] = _target_set(marker)
                markers[(dialog_id, index)] = (marker.get("method"), marker.get("origin"))
            if states and turn["speaker"] == USER:
                user_states[(dialog_id, index)] = _user_state(turn)
    return GoldIndex(turns, targets, markers, user_states)


def gold_entity_turns(gold: Corpus) -> dict[Key, set[str]]:
    """Turns with a defined gold target set, as normalized name sets."""
    return gold_index(gold.dialogs).targets


def gold_states(gold: Corpus) -> dict[Key, dict[str, set[str]]]:
    """Per-user-turn gold dialog state: slot name -> normalized value set."""
    return gold_index(gold.dialogs, states=True).states


def applied_keys(records: Iterable[AugmentationRecord]) -> list[Key]:
    """The (dialog_id, turn_index) of every record that was not skipped."""
    return [(r.dialog_id, r.turn_index) for r in records if r.skipped_reason is None]


def _select(table: dict, subset, index: GoldIndex, turn_offset: int = 0) -> dict:
    """The rows of ``table`` named by ``subset``.

    ``subset`` is ALL, AUGMENTED_ONLY (the turns whose marker in ``index``
    came from the augmenter, each shifted by ``turn_offset`` and kept when
    ``table`` has it) or an iterable of keys, each of which must be in
    ``table``.
    """
    if subset == ALL:
        return table
    if subset == AUGMENTED_ONLY:
        keys = [(dialog_id, turn + turn_offset) for (dialog_id, turn), (_, origin) in index.markers.items()
                if origin == "augment"]
        return {key: table[key] for key in keys if key in table}
    if isinstance(subset, str):
        raise ValueError(f"unknown subset {subset!r}: expected ALL, AUGMENTED_ONLY or an iterable of keys")
    chosen = {}
    for key in subset:
        if key not in table:
            raise SchemaMismatch(f"prediction key (dialog_id={key[0]!r}, turn_index={key[1]}) not in gold corpus")
        chosen[key] = table[key]
    return chosen


def _entity_hits(preds: PredictionFile, targets: dict[Key, set[str]]) -> dict[Key, bool]:
    """Per turn, in key order: whether the predicted name set equals gold."""
    hits: dict[Key, bool] = {}
    for key, gold_names in sorted(targets.items()):
        if key not in preds:
            raise SchemaMismatch(f"no prediction row for (dialog_id={key[0]!r}, turn_index={key[1]})")
        hits[key] = {name_text(n) for n in preds[key]["entities"]} == gold_names
    return hits


def _slot_hits(preds: PredictionFile, states: dict[Key, dict[str, set[str]]]) -> dict[Key, tuple[int, int]]:
    """Per user turn, in key order: (gold slots predicted exactly, gold slots).
    Extra predicted slots do not score either way."""
    hits: dict[Key, tuple[int, int]] = {}
    for key, gold_state in sorted(states.items()):
        if key not in preds or preds[key].get("state") is None:
            raise SchemaMismatch(f"no prediction row for (dialog_id={key[0]!r}, turn_index={key[1]})")
        predicted = {slot: {name_key(v) for v in values} for slot, values in preds[key]["state"].items()}
        hits[key] = (sum(predicted.get(slot) == values for slot, values in gold_state.items()), len(gold_state))
    return hits


def _joint(slots: dict[Key, tuple[int, int]]) -> float:
    return sum(right == total for right, total in slots.values()) / len(slots)


def entity_accuracy(preds: PredictionFile, gold: Corpus, subset=ALL) -> float:
    """Mean over subset turns of exact (normalized) target-set equality."""
    index = gold_index(gold.dialogs)
    hits = _entity_hits(preds, _select(index.targets, subset, index))
    if not hits:
        raise SchemaMismatch("no gold turns define an entity target in this subset")
    return sum(hits.values()) / len(hits)


def joint_goal_accuracy(preds: PredictionFile, gold: Corpus, subset=ALL) -> float:
    """Mean over user turns of all-or-nothing state correctness.

    ``subset`` is ALL (every user turn), AUGMENTED_ONLY (the user turn right
    after each augmented system turn) or an iterable of keys.  A turn counts
    when every gold slot's value set is reproduced exactly.
    """
    index = gold_index(gold.dialogs, states=True)
    slots = _slot_hits(preds, _select(index.states, subset, index, turn_offset=1))
    if not slots:
        raise SchemaMismatch("no gold turns carry a dialog state in this subset")
    return _joint(slots)


def slot_accuracy(preds: PredictionFile, gold: Corpus, subset=ALL) -> float:
    """Per-slot partial credit: each turn scores the fraction of its gold
    slots predicted exactly, averaged over turns.  Because a turn's
    all-or-nothing score never exceeds its fraction correct, JGA <= this."""
    index = gold_index(gold.dialogs, states=True)
    slots = _slot_hits(preds, _select(index.states, subset, index, turn_offset=1))
    fractions = [right / total if total else 1.0 for right, total in slots.values()]
    return sum(fractions) / len(fractions) if fractions else 1.0


def score(preds: PredictionFile, gold: Corpus, records: Iterable[AugmentationRecord] | None = None) -> dict:
    """The report of all four headline numbers plus bucket counts, as a JSON
    object: ``entity_accuracy_all``, ``entity_accuracy_augmented``,
    ``jga_all``, ``jga_augmented``, ``per_method`` and ``counts``.

    ``records`` are read first, then ``gold`` is indexed in one pass, with
    user-turn states only when some prediction carries a state.  The
    augmented-only bucket is exactly the turn indices in the records
    when given (skipped records excluded), otherwise every turn whose marker
    came from the augmenter.  Buckets that do not apply stay None.
    """
    augmented_keys = None if records is None else applied_keys(records)
    index = gold_index(gold.dialogs, states=any(row.get("state") is not None for row in preds.values()))
    report: dict = {"entity_accuracy_all": None, "entity_accuracy_augmented": None,
                    "jga_all": None, "jga_augmented": None, "per_method": None, "counts": {}}
    for key in preds:
        if not 0 <= key[1] < index.turns.get(key[0], 0):
            raise SchemaMismatch(f"prediction key (dialog_id={key[0]!r}, turn_index={key[1]}) not in gold corpus")
    # One judgement per gold turn; every bucket below is the mean of a
    # selection from that judgement.
    hits = _entity_hits(preds, index.targets)
    total_turns = sum(index.turns.values())
    report["counts"].update(turns_total=total_turns, turns_with_gold_targets=len(hits),
                            turns_skipped_no_target=total_turns - len(hits))

    if hits:
        report["entity_accuracy_all"] = sum(hits.values()) / len(hits)
        by_method: dict[str, list[bool]] = {}
        for key, (method, _) in index.markers.items():
            if method:
                by_method.setdefault(method, []).append(hits[key])
        report["per_method"] = {method: sum(bucket) / len(bucket) for method, bucket in sorted(by_method.items())}

    if augmented_keys is None:
        augmented_keys = list(_select(hits, AUGMENTED_ONLY, index))
    report["counts"]["turns_augmented"] = len(augmented_keys)
    if augmented_keys:
        augmented = _select(hits, augmented_keys, index)
        report["entity_accuracy_augmented"] = sum(augmented.values()) / len(augmented)

    # Prediction files without any state (``resolve`` never writes one) get
    # no joint goal accuracy, and the index keeps no gold states for them.
    if not index.states or not all(key in preds and preds[key].get("state") is not None for key in index.states):
        return report
    slots = _slot_hits(preds, index.states)
    report["jga_all"] = _joint(slots)
    user_keys = [(d, t + 1) for d, t in augmented_keys if (d, t + 1) in slots]
    if user_keys:
        report["jga_augmented"] = _joint(_select(slots, user_keys, index))
    return report
