from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from disambig.augmenter import AUGMENT_METHODS, DEFAULT_ALLOWED, AugmentationRecord, augment_corpus
from disambig.corpus import Corpus, dialog_row
from disambig import metrics
from disambig.errors import MissingPrediction, SchemaMismatch, UnknownSubsetTurn
from disambig.metrics import (
    ALL,
    AUGMENTED_ONLY,
    entity_accuracy,
    gold_entity_turns,
    gold_states,
    joint_goal_accuracy,
    read_predictions,
    score,
    slot_accuracy,
    write_predictions,
)

from .oracles import (
    slow_entity_accuracy,
    slow_joint_goal_accuracy,
    slow_prediction_row,
    slow_score,
    slow_slot_accuracy,
)


def _marked_dialog(dialog_id: str, targets: list[str], origin: str = "synth") -> dict:
    system = {"speaker": "SYSTEM", "utterance": "pick one", "frames": [{"service": "hotel"}],
              "extras": {"disambig": {"origin": origin, "method": "exact", "target_names": targets,
                                      "candidate_names": targets + ["decoy inn"]}}}
    user = {"speaker": "USER", "utterance": "choice", "frames": [{"service": "hotel"}]}
    return dialog_row({"id": dialog_id, "services": ["hotel"], "turns": [system, user]})


def _keyed(*rows: dict) -> dict:
    """Prediction rows by their (dialog_id, turn_index) key, as ``read_predictions`` returns them."""
    return {(row["dialog_id"], row["turn_index"]): row for row in rows}


def _entity_fixture() -> tuple[Corpus, dict]:
    """10 marked turns; predictions get exactly 7 right."""
    gold_targets = [[f"target {i} inn"] for i in range(10)]
    dialogs = [_marked_dialog(f"g{i}", names) for i, names in enumerate(gold_targets)]
    preds = {}
    for i, names in enumerate(gold_targets):
        predicted = list(names) if i < 7 else ["wrong answer lodge"]
        row = {"dialog_id": f"g{i}", "turn_index": 0, "entities": predicted}
        preds.update(_keyed(row))
    return Corpus(dialogs=dialogs), preds


class TestEntityAccuracy:
    def test_seven_of_ten(self):
        gold, preds = _entity_fixture()
        assert entity_accuracy(preds, gold, subset=ALL) == pytest.approx(0.7)

    def test_perfect_predictions(self):
        gold, preds = _entity_fixture()
        for key, row in preds.items():
            marker = gold_entity_turns(gold)[key]
            row["entities"] = sorted(marker)
        assert entity_accuracy(preds, gold, subset=ALL) == 1.0

    def test_multiple_targets_order_insensitive(self):
        gold = Corpus(dialogs=[_marked_dialog("m0", ["alpha inn", "briar manor"])])
        row = {"dialog_id": "m0", "turn_index": 0, "entities": ["briar manor", "alpha inn"]}
        assert entity_accuracy(_keyed(row), gold, subset=ALL) == 1.0

    def test_normalization_invariance(self):
        gold = Corpus(dialogs=[_marked_dialog("m0", ["Alpha Inn"])])
        row = {"dialog_id": "m0", "turn_index": 0, "entities": ["  alpha inn!  "]}
        assert entity_accuracy(_keyed(row), gold, subset=ALL) == 1.0

    def test_missing_prediction(self):
        gold, preds = _entity_fixture()
        del preds[("g3", 0)]
        with pytest.raises(MissingPrediction) as info:
            entity_accuracy(preds, gold, subset=ALL)
        assert info.value.key == ("g3", 0)

    def test_unknown_subset_turn(self):
        gold, preds = _entity_fixture()
        with pytest.raises(UnknownSubsetTurn):
            entity_accuracy(preds, gold, subset=[("ghost", 5)])


def _state_dialog(dialog_id: str, gold_slots: dict[str, list[str]]) -> dict:
    user = {"speaker": "USER", "utterance": "hi", "frames": [{"service": "hotel", "slot_values": gold_slots}]}
    system = {"speaker": "SYSTEM", "utterance": "ok"}
    return dialog_row({"id": dialog_id, "services": ["hotel"], "turns": [user, system]})


class TestJointGoalAccuracy:
    def test_perfect(self):
        gold = Corpus(dialogs=[_state_dialog("s0", {"hotel-area": ["north"]})])
        row = {"dialog_id": "s0", "turn_index": 0, "entities": [], "state": {"hotel-area": ["north"]}}
        assert joint_goal_accuracy(_keyed(row), gold) == 1.0

    def test_single_wrong_slot_zeroes_the_turn(self):
        gold = Corpus(dialogs=[
            _state_dialog("s0", {"hotel-area": ["north"], "hotel-stars": ["4"]}),
            _state_dialog("s1", {"hotel-area": ["south"]}),
        ])
        preds = {
            ("s0", 0): {"dialog_id": "s0", "turn_index": 0, "entities": [],
                        "state": {"hotel-area": ["north"], "hotel-stars": ["5"]}},
            ("s1", 0): {"dialog_id": "s1", "turn_index": 0, "entities": [], "state": {"hotel-area": ["south"]}},
        }
        assert joint_goal_accuracy(preds, gold) == pytest.approx(0.5)

    def test_thirteen_of_twenty(self):
        dialogs = []
        preds = {}
        for i in range(20):
            gold_slots = {"hotel-area": ["north"], "hotel-name": [f"inn number {i}"]}
            dialogs.append(_state_dialog(f"s{i}", gold_slots))
            predicted = dict(gold_slots) if i < 13 else {"hotel-area": ["south"], "hotel-name": [f"inn number {i}"]}
            preds[(f"s{i}", 0)] = {"dialog_id": f"s{i}", "turn_index": 0, "entities": [], "state": predicted}
        assert joint_goal_accuracy(preds, Corpus(dialogs=dialogs)) == pytest.approx(0.65)

    def test_value_set_semantics(self):
        gold = Corpus(dialogs=[_state_dialog("s0", {"hotel-area": ["north", "North "]})])
        row = {"dialog_id": "s0", "turn_index": 0, "entities": [], "state": {"hotel-area": ["north"]}}
        assert joint_goal_accuracy(_keyed(row), gold) == 1.0

    def test_missing_state(self):
        gold = Corpus(dialogs=[_state_dialog("s0", {"hotel-area": ["north"]})])
        row = {"dialog_id": "s0", "turn_index": 0, "entities": [], "state": None}
        with pytest.raises(MissingPrediction):
            joint_goal_accuracy(_keyed(row), gold)

    @pytest.mark.parametrize("metric", [joint_goal_accuracy, slot_accuracy])
    def test_unknown_subset_turn(self, metric):
        gold = Corpus(dialogs=[_state_dialog("s0", {"hotel-area": ["north"]})])
        row = {"dialog_id": "s0", "turn_index": 0, "entities": [], "state": {"hotel-area": ["north"]}}
        with pytest.raises(UnknownSubsetTurn, match="ghost"):
            metric(_keyed(row), gold, subset=[("ghost", 5)])


def test_augmented_only_subset_on_augmented_toy_corpus(toy_corpus, shipped_db, shipped_grammar):
    gold, records, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
    augmented = sorted((r.dialog_id, r.turn_index) for r in records if r.skipped_reason is None)
    targets, states = gold_entity_turns(gold), gold_states(gold)
    preds = {}
    for dialog in gold.dialogs:
        for index in range(len(dialog["turns"])):
            right = (len(dialog["id"]) + index) % 3 != 0
            key = (dialog["id"], index)
            entities = sorted(targets.get(key, ())) if right else ["wrong lodge"]
            state = {slot: sorted(values) for slot, values in states.get(key, {}).items()} if right else {}
            preds[key] = {"dialog_id": dialog["id"], "turn_index": index, "entities": entities, "state": state}
    user_turns = [(d, t + 1) for d, t in augmented if (d, t + 1) in states]
    assert augmented and user_turns
    assert entity_accuracy(preds, gold, subset=AUGMENTED_ONLY) == entity_accuracy(preds, gold, subset=augmented)
    for metric in (joint_goal_accuracy, slot_accuracy):
        assert metric(preds, gold, subset=AUGMENTED_ONLY) == metric(preds, gold, subset=user_turns)
    for metric in (entity_accuracy, joint_goal_accuracy, slot_accuracy):
        with pytest.raises(ValueError, match="augmented"):
            metric(preds, gold, subset="augmented")


class TestJgaNeverExceedsSlotAccuracy:
    def test_randomized_fixture_predictions(self):
        rng = random.Random(20240)
        slots = ["hotel-area", "hotel-stars", "hotel-name"]
        values = ["north", "south", "4", "5", "palm inn", "crown inn"]
        for _ in range(1000):
            n_turns = rng.randint(1, 4)
            dialogs = []
            preds = {}
            for i in range(n_turns):
                gold_slots = {s: [rng.choice(values)] for s in rng.sample(slots, rng.randint(1, 3))}
                dialogs.append(_state_dialog(f"s{i}", gold_slots))
                predicted = {
                    s: [rng.choice(values)] if rng.random() < 0.5 else list(v)
                    for s, v in gold_slots.items()
                }
                preds[(f"s{i}", 0)] = {"dialog_id": f"s{i}", "turn_index": 0, "entities": [], "state": predicted}
            gold = Corpus(dialogs=dialogs)
            assert joint_goal_accuracy(preds, gold) <= slot_accuracy(preds, gold) + 1e-12


class TestScore:
    def test_empty_records_leave_augmented_unset(self):
        gold, preds = _entity_fixture()
        report = score(preds, gold, records=[])
        assert report["entity_accuracy_all"] == pytest.approx(0.7)
        assert report["entity_accuracy_augmented"] is None
        assert report["counts"]["turns_augmented"] == 0
        assert report["counts"]["turns_with_gold_targets"] == 10

    def test_augmented_subset_from_markers(self):
        dialogs = [
            _marked_dialog("a0", ["alpha inn"], origin="augment"),
            _marked_dialog("a1", ["briar manor"], origin="synth"),
        ]
        gold = Corpus(dialogs=dialogs)
        preds = {
            ("a0", 0): {"dialog_id": "a0", "turn_index": 0, "entities": ["alpha inn"]},
            ("a1", 0): {"dialog_id": "a1", "turn_index": 0, "entities": ["wrong lodge"]},
        }
        report = score(preds, gold)
        assert report["entity_accuracy_all"] == pytest.approx(0.5)
        assert report["entity_accuracy_augmented"] == 1.0

    def test_per_method_table(self):
        gold, preds = _entity_fixture()
        report = score(preds, gold)
        assert report["per_method"] == {"exact": pytest.approx(0.7)}

    def test_missing_prediction_key_is_named(self):
        gold, preds = _entity_fixture()
        del preds[("g9", 0)]
        with pytest.raises(MissingPrediction, match="g9"):
            score(preds, gold)

    def test_stray_prediction_key_rejected(self):
        gold, preds = _entity_fixture()
        stray = {"dialog_id": "not-in-gold", "turn_index": 0, "entities": []}
        preds.update(_keyed(stray))
        with pytest.raises(UnknownSubsetTurn, match="not-in-gold"):
            score(preds, gold)

    def test_duplicate_gold_dialog_ids_rejected(self):
        gold = Corpus(dialogs=[_marked_dialog("g0", ["alpha inn"]), _marked_dialog("g0", ["briar manor"])])
        with pytest.raises(SchemaMismatch, match="duplicate dialog ids"):
            score({}, gold)

    def test_predictions_without_states_skip_gold_states(self, monkeypatch, toy_corpus, shipped_db, shipped_grammar):
        # What ``resolve --kind records`` writes: entities only, no state.
        gold, records, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
        preds = {}
        for record in records:
            preds.update(_keyed({"dialog_id": record.dialog_id, "turn_index": record.turn_index,
                                 "entities": [record.target["name"]]}))
        monkeypatch.setattr(metrics, "_user_state", lambda turn: pytest.fail("gold state built for no state"))
        report = score(preds, gold, records)
        assert report == {
            "entity_accuracy_all": 1.0,
            "entity_accuracy_augmented": 1.0,
            "jga_all": None,
            "jga_augmented": None,
            "per_method": {"exact": 1.0},
            "counts": {"turns_augmented": 16, "turns_skipped_no_target": 784,
                       "turns_total": 800, "turns_with_gold_targets": 16},
        }

    def test_one_gold_scan_gives_every_bucket(self, toy_corpus, shipped_db, shipped_grammar):
        gold, _, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, 3, DEFAULT_ALLOWED, AUGMENT_METHODS)
        gold.dialogs.append(_marked_dialog("hand-0", ["alpha inn"], origin="hand"))
        targets = gold_entity_turns(gold)
        preds, by_method = {}, {}
        for dialog in gold.dialogs:
            for index, turn in enumerate(dialog["turns"]):
                key = (dialog["id"], index)
                preds[key] = {"dialog_id": dialog["id"], "turn_index": index, "entities": sorted(targets.get(key, ()))}
                if "disambig" in turn["extras"]:
                    by_method.setdefault(turn["extras"]["disambig"]["method"], []).append(key)
        for key in sorted(targets)[::3]:
            preds[key]["entities"] = ["wrong lodge"]
        expected = {
            "entity_accuracy_all": entity_accuracy(preds, gold),
            "entity_accuracy_augmented": entity_accuracy(preds, gold, subset=AUGMENTED_ONLY),
            "per_method": {method: entity_accuracy(preds, gold, subset=keys) for method, keys in by_method.items()},
        }
        assert len(expected["per_method"]) > 1 and 0 < expected["entity_accuracy_all"] < 1
        report = score(preds, gold._replace(dialogs=iter(gold.dialogs)))  # gold that can be read only once
        assert {name: report[name] for name in expected} == expected

    def test_predictions_with_states_get_jga(self, toy_corpus, shipped_db, shipped_grammar):
        gold, records, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
        targets, states = gold_entity_turns(gold), gold_states(gold)
        preds = {}
        for dialog in gold.dialogs:
            for index in range(len(dialog["turns"])):
                key = (dialog["id"], index)
                right = (len(dialog["id"]) + index) % 4 != 0
                state = {slot: sorted(values) for slot, values in states[key].items()} if key in states else None
                preds[key] = {"dialog_id": dialog["id"], "turn_index": index, "entities": sorted(targets.get(key, ())),
                              "state": state if right or state is None else {}}
        report = score(preds, gold, records)
        assert report["jga_all"] == joint_goal_accuracy(preds, gold, subset=ALL)
        assert report["jga_augmented"] == joint_goal_accuracy(preds, gold, subset=AUGMENTED_ONLY)
        assert 0 < report["jga_all"] < 1
        assert report["entity_accuracy_all"] == 1.0

    def test_one_state_scan_with_states(self, monkeypatch, toy_corpus, shipped_db, shipped_grammar):
        gold, records, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
        targets, states = gold_entity_turns(gold), gold_states(gold)
        preds = {}
        for dialog in gold.dialogs:
            for index in range(len(dialog["turns"])):
                key = (dialog["id"], index)
                state = {slot: sorted(values) for slot, values in states[key].items()} if key in states else None
                preds[key] = {"dialog_id": dialog["id"], "turn_index": index, "entities": sorted(targets.get(key, ())),
                              "state": state}
        calls, user_state = [], metrics._user_state
        monkeypatch.setattr(metrics, "_user_state", lambda turn: calls.append(turn) or user_state(turn))
        report = score(preds, gold._replace(dialogs=iter(gold.dialogs)), records)  # gold that can be read only once
        assert report["jga_all"] == 1.0 and report["jga_augmented"] == 1.0
        assert len(calls) == len(states)  # one state per user turn


_NAMES = ["alpha inn", "Briar Manor", "crown lodge!"]
_SLOTS = ["hotel-area", "hotel-name"]
_VALUES = ["north", "North ", "south", "alpha inn"]


@st.composite
def _scoring_case(draw):
    """A random gold corpus with markers of several origins and methods,
    predictions that may miss, stray or carry states, a subset and records."""
    ids = draw(st.lists(st.sampled_from(["d0", "d1", "d2", "d3"]), max_size=4, unique=True))
    if ids and draw(st.integers(0, 7)) == 0:
        ids.append(ids[0])  # duplicate dialog ids
    dialogs, keys, marked, user_keys = [], [], [], []
    for dialog_id in ids:
        turns = []
        speakers = ["SYSTEM", "USER"] if draw(st.booleans()) else ["USER", "SYSTEM"]
        for index in range(draw(st.integers(1, 5))):
            speaker = speakers[index % 2]
            extras, frames = {}, []
            if speaker == "SYSTEM" and draw(st.booleans()):
                extras["disambig"] = {
                    "origin": draw(st.sampled_from(["synth", "augment", "hand"])),
                    "method": draw(st.sampled_from(["exact", "typo", "positional", ""])),
                    "target_names": draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2)),
                }
            if speaker == "USER":
                slot_values = draw(st.dictionaries(st.sampled_from(_SLOTS),
                                                   st.lists(st.sampled_from(_VALUES), min_size=1, max_size=2)))
                frames = [{"service": "hotel", "slot_values": slot_values}] if draw(st.booleans()) else []
            turns.append({"speaker": speaker, "utterance": "u", "frames": frames, "extras": extras})
            keys.append((dialog_id, index))
            if speaker == "USER":
                user_keys.append((dialog_id, index))
            elif extras:
                marked.append((dialog_id, index))
        dialogs.append(dialog_row({"id": dialog_id, "services": ["hotel"], "turns": turns}))
    gold = Corpus(dialogs=dialogs)

    with_states = draw(st.booleans())
    preds = {}
    strays = [draw(st.sampled_from([("ghost", 0), ("d0", 9)]))] if draw(st.integers(0, 4)) == 0 else []
    missing = draw(st.sampled_from([0, 1, 6]))  # in twentieths
    for key in keys + strays:
        if draw(st.integers(0, 19)) < missing:
            continue
        entities = draw(st.lists(st.sampled_from(_NAMES + ["ALPHA INN", "wrong lodge"]), max_size=2))
        state = None
        if with_states and draw(st.integers(0, 19)) > 0:
            state = draw(st.dictionaries(st.sampled_from(_SLOTS),
                                         st.lists(st.sampled_from(_VALUES), min_size=1, max_size=2)))
        preds[key] = {"dialog_id": key[0], "turn_index": key[1], "entities": entities, "state": state}

    subset = draw(st.one_of(
        st.sampled_from([ALL, AUGMENTED_ONLY, "augmented"]),
        *(st.lists(st.sampled_from(pool), max_size=4) for pool in (keys, marked, user_keys) if pool),
    ))
    records = None
    if draw(st.booleans()):
        entity = {"domain": "hotel", "name": "alpha inn", "attributes": {}}
        records = [
            AugmentationRecord(dialog_id=key[0], turn_index=key[1], original_system="", new_system="",
                               user_prefix="", original_user="", candidates=[entity], target=entity,
                               skipped_reason=draw(st.sampled_from([None, "not_enough_entities"])))
            for key in draw(st.lists(st.sampled_from(marked + [("ghost", 2)]), max_size=4))
        ]
    return gold, preds, subset, records


def _outcome(function, *args):
    try:
        return "value", function(*args)
    except Exception as exc:  # the oracle and the judge must fail alike
        return type(exc), str(exc)


@settings(max_examples=200)
@given(_scoring_case())
def test_judged_tables_match_the_slow_references(case):
    gold, preds, subset, records = case
    pairs = [
        (entity_accuracy, slow_entity_accuracy),
        (joint_goal_accuracy, slow_joint_goal_accuracy),
        (slot_accuracy, slow_slot_accuracy),
    ]
    for fast, slow in pairs:
        assert _outcome(fast, preds, gold, subset) == _outcome(slow, preds, gold, subset), fast.__name__
    assert _outcome(lambda: score(preds, gold, records)) == _outcome(slow_score, preds, gold, records)


def test_prediction_file_round_trip(tmp_path):
    rows = [
        {"dialog_id": "d1", "turn_index": 0, "entities": ["alpha inn"]},
        {"dialog_id": "d1", "turn_index": 2, "entities": ["briar manor"], "state": {"hotel-area": ["north"]}},
    ]
    path = tmp_path / "preds.jsonl"
    write_predictions(rows, str(path))
    loaded = read_predictions(str(path))
    assert loaded[("d1", 0)]["entities"] == ["alpha inn"]
    assert loaded[("d1", 2)]["state"] == {"hotel-area": ["north"]}


# JSON values of every scalar type, and lists of them.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(-2, 2), st.text(max_size=3))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2))


@settings(max_examples=300)
@given(st.fixed_dictionaries({}, optional={
    "dialog_id": st.one_of(st.just("d1"), _JSON_VALUES),
    "turn_index": st.one_of(st.integers(0, 3), _JSON_VALUES),
    "entities": st.one_of(st.lists(st.sampled_from(["alpha inn", ""]), max_size=2), _JSON_VALUES),
    "state": st.one_of(st.dictionaries(st.sampled_from(["hotel-area", "hotel-stars"]),
                                       st.one_of(st.lists(st.just("north"), max_size=2), _JSON_VALUES), max_size=2),
                       _JSON_VALUES),
    "extra": _JSON_VALUES,
}))
def test_prediction_row_matches_the_prediction_row_class(obj):
    """``prediction_row`` returns the row that ``PredictionRow`` read and
    wrote back, or raises its error; only a state that is not an object,
    which ``PredictionRow`` took for one, is refused in its place."""
    expected = _outcome(slow_prediction_row, obj)
    state = obj.get("state")
    if state is not None and not isinstance(state, dict):
        expected = _outcome(slow_prediction_row, {**obj, "state": None})
        if expected[0] == "value":
            expected = SchemaMismatch, f"state: expected an object, got {state!r:.60}"
    assert _outcome(metrics.prediction_row, obj) == expected


def test_duplicate_prediction_keys_rejected(tmp_path):
    path = tmp_path / "preds.jsonl"
    row = {"dialog_id": "d1", "turn_index": 0, "entities": []}
    write_predictions([row, row], str(path))
    with pytest.raises(SchemaMismatch, match="duplicate"):
        read_predictions(str(path))
