from __future__ import annotations

import copy
import json

import pytest

from disambig.augmenter import (
    AUGMENT_METHODS,
    DEFAULT_ALLOWED,
    MULTIWOZ_ALLOWED_DOMAINS,
    SGD_ALLOWED_SERVICES,
    AugmentationRecord,
    augment_corpus,
    augment_dialog,
    find_augmentable_turns,
    multi_result_report,
    read_records,
    write_records,
)
from disambig.corpus import Corpus, Database, Dialog, Entity, Frame, Turn, name_key
from disambig.resolver import predict_names
from disambig.synthesizer import AddressingMethod

from .oracles import slow_augment_dialog


def _dialog_by_id(corpus, dialog_id):
    return next(d for d in corpus.dialogs if d.id == dialog_id)


def _states(dialog):
    return [[frame.to_json() for frame in turn.frames] for turn in dialog.turns]


class TestFindAugmentable:
    def test_toy_corpus_matches_hand_annotation(self, toy_corpus, shipped_db, toy_expected):
        found = []
        for dialog in toy_corpus.dialogs:
            for turn_index, _, _ in find_augmentable_turns(dialog, shipped_db):
                found.append([dialog.id, turn_index])
        assert sorted(found) == toy_expected["augmentable"]

    def test_hotel_accept_2nd_fixture(self, toy_corpus, shipped_db):
        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        found = find_augmentable_turns(dialog, shipped_db)
        assert len(found) == 1
        turn_index, pool, accepted = found[0]
        assert turn_index == 3
        assert len(pool) == 3
        # the accepted entity is the one whose name lands in the post-turn state
        state_values = set()
        for turn in dialog.turns[turn_index + 1:]:
            for frame in turn.frames:
                for values in frame.slot_values.values():
                    state_values.update(name_key(v) for v in values)
        assert name_key(accepted.name) in state_values

    def test_single_result_turn_not_augmentable(self, shipped_db):
        hotel = shipped_db.tables["hotel"][0]
        dialog = Dialog(
            id="single",
            services=["hotel"],
            turns=[
                Turn(speaker="USER", utterance="hi", frames=[Frame(service="hotel")]),
                Turn(speaker="SYSTEM", utterance=f"how about {hotel.name}?", search_results=[hotel]),
                Turn(
                    speaker="USER",
                    utterance="fine",
                    frames=[Frame(service="hotel", slot_values={"hotel-name": [hotel.name]})],
                ),
            ],
        )
        assert find_augmentable_turns(dialog, shipped_db) == []

    def test_rejected_suggestion_excluded(self, toy_corpus, shipped_db):
        rejects = [d for d in toy_corpus.dialogs
                   if "none of those really appeal" in " ".join(t.utterance for t in d.turns)]
        assert rejects, "fixture should include rejection dialogs"
        for dialog in rejects:
            assert find_augmentable_turns(dialog, shipped_db) == []

    def test_disallowed_domain_excluded(self, shipped_db):
        offers = [Entity(domain="train", name=f"train {i} departure") for i in range(3)]
        dialog = Dialog(
            id="train",
            services=["train"],
            turns=[
                Turn(speaker="USER", utterance="train please", frames=[Frame(service="train")]),
                Turn(speaker="SYSTEM", utterance="options", search_results=offers),
                Turn(
                    speaker="USER",
                    utterance="the first",
                    frames=[Frame(service="train", slot_values={"train-id": [offers[0].name]})],
                ),
            ],
        )
        assert find_augmentable_turns(dialog, shipped_db, allowed=DEFAULT_ALLOWED) == []
        assert find_augmentable_turns(dialog, shipped_db, allowed=frozenset({"train"})) == []  # absent from db


class TestAugmentDialog:
    def test_identity_when_nothing_to_do(self, toy_corpus, shipped_db, shipped_grammar):
        dialog = _dialog_by_id(toy_corpus, "d045")  # a no-results taxi dialog
        new_dialog, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=0)
        assert new_dialog == dialog
        assert records == []

    def test_deterministic(self, toy_corpus, shipped_db, shipped_grammar):
        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        first = augment_dialog(dialog, shipped_db, shipped_grammar, seed=4)
        second = augment_dialog(dialog, shipped_db, shipped_grammar, seed=4)
        assert first == second

    def test_record_invariants(self, toy_corpus, shipped_db, shipped_grammar):
        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        new_dialog, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=0)
        (record,) = records
        assert record.skipped_reason is None
        assert 3 <= len(record.candidates) <= 5
        assert record.target in record.candidates
        new_user = new_dialog.turns[record.turn_index + 1].utterance
        assert new_user == record.user_prefix + " " + record.original_user
        assert new_dialog.turns[record.turn_index].utterance == record.new_system
        # candidates all distinct, same domain
        keys = [name_key(e.name) for e in record.candidates]
        assert len(set(keys)) == len(keys)
        assert {e.domain for e in record.candidates} == {record.target.domain}

    def test_prefix_resolves_to_target(self, toy_corpus, shipped_db, shipped_grammar):
        for seed in range(10):
            for dialog_id in ("hotel_accept_2nd", "d003", "d008"):
                dialog = _dialog_by_id(toy_corpus, dialog_id)
                _, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=seed)
                for record in records:
                    names = predict_names(record.candidates, record.user_prefix)
                    assert [name_key(n) for n in names] == [name_key(record.target.name)]

    def test_states_untouched(self, toy_corpus, shipped_db, shipped_grammar):
        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        before = _states(dialog)
        new_dialog, _ = augment_dialog(dialog, shipped_db, shipped_grammar, seed=0)
        assert _states(new_dialog) == before

    def test_changes_confined_to_recorded_turns(self, toy_corpus, shipped_db, shipped_grammar):
        for dialog in toy_corpus.dialogs:
            new_dialog, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=1)
            allowed_changes = set()
            for record in records:
                if record.skipped_reason is None:
                    allowed_changes.update({record.turn_index, record.turn_index + 1})
            for index, (old, new) in enumerate(zip(dialog.turns, new_dialog.turns)):
                if index in allowed_changes:
                    assert new.utterance != old.utterance or "disambig" in new.extras
                    assert new.frames == old.frames
                    assert new.search_results == old.search_results
                else:
                    assert new == old

    def test_skip_when_table_too_small(self, toy_corpus, shipped_grammar, shipped_db):
        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        accepted_names = {name_key(e.name) for _, _, e in
                          [found for found in find_augmentable_turns(dialog, shipped_db)][:1]}
        tiny = Database(
            tables={"hotel": [e for e in shipped_db.tables["hotel"]
                              if name_key(e.name) in accepted_names][:1]},
            name_fields={"hotel": "name"},
            nouns={"hotel": "hotel"},
        )
        new_dialog, records = augment_dialog(dialog, tiny, shipped_grammar, seed=0)
        (record,) = records
        assert record.skipped_reason == "not_enough_entities"
        assert new_dialog == dialog

    def test_mixed_methods_stay_consistent(self, toy_corpus, shipped_db, shipped_grammar):
        from disambig.augmenter import AUGMENT_METHODS

        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        seen = set()
        for seed in range(12):
            _, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=seed, methods=AUGMENT_METHODS)
            (record,) = records
            names = predict_names(record.candidates, record.user_prefix)
            assert [name_key(n) for n in names] == [name_key(record.target.name)]
            seen.add(json.dumps(sorted(record.to_json().items()), default=str)[:64])
        assert len(seen) > 1

    def test_multiple_not_allowed_for_augmentation(self, toy_corpus, shipped_db, shipped_grammar):
        from disambig.errors import SchemaMismatch

        dialog = _dialog_by_id(toy_corpus, "hotel_accept_2nd")
        with pytest.raises(SchemaMismatch):
            augment_dialog(dialog, shipped_db, shipped_grammar, seed=0, methods=(AddressingMethod.MULTIPLE,))


class TestAugmentDialogAgainstDeepCopy:
    """The turn-sharing ``augment_dialog`` against the deep-copying original."""

    @pytest.fixture(params=["shipped", "tiny"])
    def db(self, request, shipped_db, toy_corpus):
        if request.param == "shipped":
            return shipped_db
        # At most four of the toy corpus's accepted entities per domain: some
        # accepted entities are missing and some turns are skipped for want
        # of candidates, so every path of augment_dialog runs.
        accepted: dict[str, dict[str, Entity]] = {}
        for dialog in toy_corpus.dialogs:
            for _, _, entity in find_augmentable_turns(dialog, shipped_db):
                accepted.setdefault(entity.domain, {})[name_key(entity.name)] = entity
        return Database(
            tables={domain: list(entities.values())[:4] for domain, entities in accepted.items()},
            name_fields={domain: "name" for domain in accepted},
            nouns=shipped_db.nouns,
        )

    @pytest.mark.parametrize("methods", [(AddressingMethod.EXACT,), AUGMENT_METHODS], ids=["exact", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_equal_dialogs_and_records(self, toy_corpus, db, shipped_db, shipped_grammar, seed, methods):
        applied = skipped = 0
        for dialog in toy_corpus.dialogs:
            fast = augment_dialog(dialog, db, shipped_grammar, seed=seed, methods=methods)
            slow = slow_augment_dialog(dialog, db, shipped_grammar, seed=seed, methods=methods)
            assert fast == slow, dialog.id
            assert fast[0].to_json() == slow[0].to_json(), dialog.id
            applied += sum(r.skipped_reason is None for r in fast[1])
            skipped += sum(r.skipped_reason is not None for r in fast[1])
        assert applied > 0
        if db is not shipped_db:
            assert skipped > 0

    def test_only_rewritten_turns_are_new(self, toy_corpus, shipped_db, shipped_grammar):
        for dialog in toy_corpus.dialogs:
            new_dialog, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=0)
            assert new_dialog is not dialog and new_dialog.turns is not dialog.turns
            rewritten = {i for r in records if r.skipped_reason is None for i in (r.turn_index, r.turn_index + 1)}
            for index, (old, new) in enumerate(zip(dialog.turns, new_dialog.turns)):
                assert (new is not old) == (index in rewritten)
                assert new.frames is old.frames

    def test_mutating_a_rewritten_turn_leaves_the_input_alone(self, toy_corpus, shipped_db, shipped_grammar):
        snapshot = copy.deepcopy(toy_corpus)
        for dialog in toy_corpus.dialogs:
            new_dialog, records = augment_dialog(dialog, shipped_db, shipped_grammar, seed=2, methods=AUGMENT_METHODS)
            for record in records:
                if record.skipped_reason is not None:
                    continue
                system_turn = new_dialog.turns[record.turn_index]
                user_turn = new_dialog.turns[record.turn_index + 1]
                system_turn.utterance += " changed"
                system_turn.extras["disambig"]["method"] = "changed"
                system_turn.extras["added"] = True
                user_turn.utterance = "changed"
                user_turn.extras["added"] = True
        assert toy_corpus == snapshot


class TestAugmentCorpus:
    def test_stats_mirror_expected_proportions(self, toy_corpus, shipped_db, shipped_grammar, toy_expected):
        _, records, stats = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
        assert stats.dialogs_total == 50
        assert stats.turns_total == toy_expected["turns_total"]
        assert stats.turns_modified == len(toy_expected["augmentable"])
        assert abs(stats.turns_modified / stats.turns_total - 0.02) <= 0.01
        assert stats.dialogs_modified / stats.dialogs_total >= 0.30
        assert sum(d["turns_modified"] for d in stats.per_domain.values()) == stats.turns_modified

    def test_idempotent(self, toy_corpus, shipped_db, shipped_grammar):
        augmented, _, first_stats = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
        again, records, stats = augment_corpus(augmented, shipped_db, shipped_grammar, seed=0)
        assert stats.turns_modified == 0
        assert records == []
        assert again == augmented

    def test_input_corpus_not_mutated(self, toy_corpus, shipped_db, shipped_grammar):
        snapshot = copy.deepcopy(toy_corpus)
        augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
        assert toy_corpus == snapshot

    def test_stats_count_dialogs_and_turns_per_domain(self, shipped_grammar):
        # Per dialog, the (domain, offered names, index of the accepted one) of each exchange.
        # The attraction table is too small for any candidate list, so its turns are skipped.
        exchanges = {
            "two_hotels": [("hotel", ["alpha lodge", "birch inn"], 0), ("hotel", ["cedar house", "dune hotel"], 1)],
            "hotel_then_restaurant": [("hotel", ["elm court", "fir manor"], 1),
                                      ("restaurant", ["gold wok", "harbor grill"], 0)],
            "hotel_then_attraction": [("hotel", ["alpha lodge", "cedar house"], 1),
                                      ("attraction", ["lark museum", "moss garden"], 0)],
            "attraction_only": [("attraction", ["lark museum", "moss garden"], 1)],
        }
        names = {domain: sorted({n for picks in exchanges.values() for d, offered, _ in picks if d == domain
                                 for n in offered}) for domain in ("hotel", "restaurant", "attraction")}
        names["restaurant"] += ["ivy bistro", "jade kitchen", "kiln pizza"]
        db = Database(tables={d: [Entity(domain=d, name=n) for n in ns] for d, ns in names.items()},
                      name_fields={d: "name" for d in names})
        dialogs = []
        for dialog_id, picks in exchanges.items():
            turns = [Turn(speaker="USER", utterance="i need a few places", frames=[Frame(service=picks[0][0])])]
            for domain, offered, accepted in picks:
                turns.append(Turn(speaker="SYSTEM", utterance=" or ".join(offered) + "?",
                                  search_results=[Entity(domain=domain, name=n) for n in offered]))
                turns.append(Turn(speaker="USER", utterance="that one", frames=[
                    Frame(service=domain, slot_values={f"{domain}-name": [offered[accepted]]})]))
            turns.append(Turn(speaker="SYSTEM", utterance="done."))
            dialogs.append(Dialog(id=dialog_id, services=sorted({d for d, _, _ in picks}), turns=turns))

        _, records, stats = augment_corpus(Corpus(dialogs=dialogs), db, shipped_grammar, seed=0)

        assert [(r.dialog_id, r.turn_index, r.target.name, r.skipped_reason) for r in records] == [
            ("two_hotels", 1, "alpha lodge", None),
            ("two_hotels", 3, "dune hotel", None),
            ("hotel_then_restaurant", 1, "fir manor", None),
            ("hotel_then_restaurant", 3, "gold wok", None),
            ("hotel_then_attraction", 1, "cedar house", None),
            ("hotel_then_attraction", 3, "lark museum", "not_enough_entities"),
            ("attraction_only", 1, "moss garden", "not_enough_entities"),
        ]
        assert stats.to_json() == {
            "dialogs_total": 4,
            "dialogs_modified": 3,
            "turns_total": 6 + 6 + 6 + 4,
            "turns_modified": 5,
            "per_domain": {
                "hotel": {"dialogs_modified": 3, "turns_modified": 4},
                "restaurant": {"dialogs_modified": 1, "turns_modified": 1},
            },
        }


class TestMultiResultReport:
    def test_all_single_results_is_zero(self, shipped_db):
        hotel = shipped_db.tables["hotel"][0]
        dialogs = [
            Dialog(
                id=f"d{i}",
                services=["hotel"],
                turns=[
                    Turn(speaker="USER", utterance="hi", frames=[Frame(service="hotel")]),
                    Turn(speaker="SYSTEM", utterance="one option", search_results=[hotel]),
                ],
            )
            for i in range(3)
        ]
        report = multi_result_report(Corpus(dialogs=dialogs))
        assert report["overall"] == 0.0

    def test_every_dialog_multi_is_one(self, shipped_db):
        hotels = shipped_db.tables["hotel"][:3]
        dialogs = [
            Dialog(
                id=f"d{i}",
                services=["hotel"],
                turns=[
                    Turn(speaker="USER", utterance="hi", frames=[Frame(service="hotel")]),
                    Turn(speaker="SYSTEM", utterance="three options", search_results=list(hotels)),
                ],
            )
            for i in range(4)
        ]
        report = multi_result_report(Corpus(dialogs=dialogs))
        assert report["overall"] == 1.0
        assert report["per_service"] == {"hotel": 1.0}

    def test_toy_corpus_matches_hand_count(self, toy_corpus, toy_expected):
        report = multi_result_report(toy_corpus)
        assert report == toy_expected["multi_result"]


class TestAllowLists:
    def test_multiwoz_default(self):
        assert MULTIWOZ_ALLOWED_DOMAINS == {"restaurant", "hotel", "attraction"}

    def test_sgd_default_has_24_services(self):
        assert len(SGD_ALLOWED_SERVICES) == 24
        assert "travel_1" in SGD_ALLOWED_SERVICES
        assert "hotels_2" not in SGD_ALLOWED_SERVICES

    def test_default_is_union(self):
        assert DEFAULT_ALLOWED == MULTIWOZ_ALLOWED_DOMAINS | SGD_ALLOWED_SERVICES


def test_records_jsonl_round_trip(toy_corpus, shipped_db, shipped_grammar, tmp_path):
    _, records, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
    path = tmp_path / "records.jsonl"
    write_records(records, str(path))
    assert read_records(str(path)) == records
