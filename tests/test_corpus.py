from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from disambig.corpus import (
    Corpus,
    Database,
    Dialog,
    Entity,
    Frame,
    Turn,
    load_corpus,
    load_database,
    name_key,
    sample_entities,
    write_corpus,
    write_database,
)
from disambig.errors import NotEnoughEntities, SchemaMismatch, UnknownDomain

SGD_DIALOG = {
    "dialogue_id": "1_00000",
    "services": ["hotels_1"],
    "turns": [
        {
            "speaker": "USER",
            "utterance": "find me a hotel please",
            "frames": [
                {
                    "service": "hotels_1",
                    "state": {
                        "active_intent": "SearchHotel",
                        "requested_slots": [],
                        "slot_values": {"destination": ["london"]},
                    },
                    "slots": [],
                }
            ],
        },
        {
            "speaker": "SYSTEM",
            "utterance": "i found 2: the palm and the crown",
            "frames": [
                {
                    "service": "hotels_1",
                    "actions": [{"act": "OFFER", "slot": "hotel_name"}],
                    "service_call": {"method": "SearchHotel"},
                    "service_results": [
                        {"hotel_name": "the palm", "star_rating": "4"},
                        {"hotel_name": "the crown", "star_rating": "3"},
                    ],
                    "slots": [],
                }
            ],
        },
        {
            "speaker": "USER",
            "utterance": "the palm works",
            "frames": [
                {
                    "service": "hotels_1",
                    "state": {
                        "active_intent": "SearchHotel",
                        "requested_slots": [],
                        "slot_values": {"destination": ["london"], "hotel_name": ["the palm"]},
                    },
                    "slots": [],
                }
            ],
        },
    ],
}


def _read_view(corpus: Corpus) -> list:
    """What the augmenter and the metrics read of a corpus: per turn the
    speaker, utterance, extras, the slot values of each frame that has any,
    and the search results grouped by domain in their order."""
    view = []
    for dialog in corpus.dialogs:
        turns = []
        for turn in dialog.turns:
            by_domain: dict[str, list] = {}
            for entity in turn.search_results or []:
                by_domain.setdefault(entity.domain, []).append((entity.name, entity.attributes))
            slots = [(frame.service, frame.slot_values) for frame in turn.frames if frame.slot_values]
            turns.append((turn.speaker, turn.utterance, turn.extras, slots, by_domain))
        view.append((dialog.id, dialog.services, turns))
    return view


# Services whose name field is a hint ("hotel", "hotels_1", "movies_3") or
# guessed from the record ("train").
_SERVICES = ["hotel", "hotels_1", "movies_3", "train"]
_WORDS = st.sampled_from(["the palm", "crown inn", "north", "4", "Café Nord"])


@st.composite
def _native_corpora(draw) -> Corpus:
    dialogs = []
    for number in range(draw(st.integers(0, 3))):
        services = draw(st.lists(st.sampled_from(_SERVICES), min_size=1, max_size=3, unique=True))
        service = st.sampled_from(services)
        turns = []
        first = draw(st.integers(0, 1))
        for index in range(draw(st.integers(1, 4))):
            speaker = ("USER", "SYSTEM")[(first + index) % 2]
            frames = [
                Frame(service=name, slot_values=draw(st.dictionaries(
                    st.sampled_from(["area", "stars"]), st.lists(_WORDS, min_size=1, max_size=2), max_size=2)))
                for name in draw(st.lists(service, max_size=2, unique=True))
            ]
            results = None
            if speaker == "SYSTEM" and draw(st.booleans()):
                results = [
                    Entity(domain=draw(service), name=draw(_WORDS),
                           attributes=draw(st.dictionaries(st.sampled_from(["area", "stars"]), _WORDS, max_size=2)))
                    for _ in range(draw(st.integers(0, 4)))
                ]
            extras = {"disambig": {"origin": "augment", "target_names": ["the palm"]}} if draw(st.booleans()) else {}
            turns.append(Turn(speaker=speaker, utterance=draw(_WORDS), frames=frames,
                              search_results=results, extras=extras))
        dialogs.append(Dialog(id=f"d{number}", services=services, turns=turns))
    return Corpus(dialogs=dialogs)


@pytest.fixture
def sgd_dir(tmp_path: Path) -> Path:
    directory = tmp_path / "train"
    directory.mkdir()
    (directory / "dialogues_001.json").write_text(json.dumps([SGD_DIALOG]), encoding="utf-8")
    return directory


def _tiny_corpus() -> Corpus:
    turns = [
        Turn(speaker="USER", utterance="hi", frames=[Frame(service="hotel", slot_values={"hotel-area": ["north"]})]),
        Turn(
            speaker="SYSTEM",
            utterance="two options",
            search_results=[
                Entity(domain="hotel", name="aurora lodge", attributes={"area": "north"}),
                Entity(domain="hotel", name="briar manor", attributes={"area": "south"}),
            ],
        ),
    ]
    dialog = Dialog(id="d1", services=["hotel"], turns=turns, extras={"note": "kept"})
    return Corpus(dialogs=[dialog], split_name="dev", source_format="native")


class TestNativeRoundTrip:
    def test_write_load_is_identity(self, tmp_path):
        corpus = _tiny_corpus()
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, str(path))
        assert load_corpus(str(path)) == corpus

    def test_rewrite_is_byte_identical(self, tmp_path, toy_corpus):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        write_corpus(toy_corpus, str(first))
        write_corpus(load_corpus(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_corpus(Corpus(dialogs=[], split_name="test"), str(path))
        loaded = load_corpus(str(path))
        assert loaded.dialogs == [] and loaded.split_name == "test"

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_corpus(_tiny_corpus(), str(tmp_path / "missing" / "corpus.jsonl"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "nope.jsonl"))

    def test_bundled_toy_corpus_has_50_dialogs(self, toy_corpus):
        assert len(toy_corpus.dialogs) == 50


class TestValidation:
    def test_duplicate_dialog_ids(self, tmp_path):
        corpus = _tiny_corpus()
        corpus.dialogs.append(Dialog(id="d1", services=[], turns=[]))
        path = tmp_path / "dup.jsonl"
        write_corpus(corpus, str(path))
        with pytest.raises(SchemaMismatch, match="duplicate dialog id"):
            load_corpus(str(path))

    def test_speakers_must_alternate(self):
        from disambig.corpus import validate_corpus

        corpus = _tiny_corpus()
        corpus.dialogs[0].turns.append(Turn(speaker="SYSTEM", utterance="again"))
        with pytest.raises(SchemaMismatch, match="alternate"):
            validate_corpus(corpus)

    def test_user_turns_cannot_carry_results(self):
        from disambig.corpus import validate_corpus

        corpus = _tiny_corpus()
        corpus.dialogs[0].turns[0].search_results = [Entity(domain="hotel", name="x y")]
        with pytest.raises(SchemaMismatch, match="search results"):
            validate_corpus(corpus)

    def test_frame_service_must_be_declared(self):
        from disambig.corpus import validate_corpus

        corpus = _tiny_corpus()
        corpus.dialogs[0].turns[0].frames[0].service = "spaceport"
        with pytest.raises(SchemaMismatch, match="spaceport"):
            validate_corpus(corpus)

    def test_empty_slot_values_rejected(self):
        from disambig.corpus import validate_corpus

        corpus = _tiny_corpus()
        corpus.dialogs[0].turns[0].frames[0].slot_values = {"hotel-area": [""]}
        with pytest.raises(SchemaMismatch, match="empty"):
            validate_corpus(corpus)

    def test_entity_requires_name(self):
        with pytest.raises(SchemaMismatch):
            Entity(domain="hotel", name="")


class TestSchemaGuidedAdapters:
    def test_sgd_directory_loads(self, sgd_dir):
        corpus = load_corpus(str(sgd_dir), format="sgd")
        assert corpus.split_name == "train"
        assert corpus.source_format == "sgd"
        dialog = corpus.dialogs[0]
        assert dialog.id == "1_00000"
        results = dialog.turns[1].search_results
        assert [e.name for e in results] == ["the palm", "the crown"]
        assert results[0].attributes == {"star_rating": "4"}
        # unknown fields survive in extras
        assert dialog.turns[1].frames[0].extras["actions"][0]["act"] == "OFFER"
        assert dialog.turns[0].frames[0].extras["state_extras"]["active_intent"] == "SearchHotel"

    def test_sgd_missing_turns_key(self, tmp_path):
        bad = {"dialogue_id": "x", "services": []}
        path = tmp_path / "dialogues_001.json"
        path.write_text(json.dumps([bad]), encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="turns"):
            load_corpus(str(path), format="sgd")

    def test_sgd_round_trip_preserves_content(self, sgd_dir, tmp_path):
        corpus = load_corpus(str(sgd_dir), format="sgd")
        out = tmp_path / "rewritten.json"
        write_corpus(corpus, str(out), format="sgd")
        again = load_corpus(str(out), format="sgd")
        assert again.dialogs == corpus.dialogs

    def test_multiwoz22_single_file(self, tmp_path):
        dialog = {
            "dialogue_id": "PMUL0001.json",
            "services": ["restaurant"],
            "turns": [
                {"speaker": "USER", "utterance": "food please", "turn_id": "0",
                 "frames": [{"service": "restaurant",
                             "state": {"active_intent": "find_restaurant", "requested_slots": [],
                                       "slot_values": {"restaurant-food": ["indian"]}},
                             "slots": []}]},
                {"speaker": "SYSTEM", "utterance": "how about the curry house?", "turn_id": "1", "frames": []},
            ],
        }
        path = tmp_path / "dev.json"
        path.write_text(json.dumps([dialog]), encoding="utf-8")
        corpus = load_corpus(str(path), format="multiwoz22")
        assert corpus.split_name == "dev"
        assert corpus.dialogs[0].turns[0].frames[0].slot_values == {"restaurant-food": ["indian"]}
        assert corpus.dialogs[0].turns[0].extras["turn_id"] == "0"
        assert corpus.dialogs[0].turns[1].search_results is None

    def test_sgd_results_are_written_back_as_read(self, tmp_path):
        dialog = json.loads(json.dumps(SGD_DIALOG))
        dialog["turns"][1]["frames"][0]["service_results"][0]["star_rating"] = 4
        source = tmp_path / "dialogues_001.json"
        source.write_text(json.dumps([dialog]), encoding="utf-8")
        out = tmp_path / "rewritten.json"
        write_corpus(load_corpus(str(source), format="sgd"), str(out), format="sgd")
        written = json.loads(out.read_text(encoding="utf-8"))[0]["turns"][1]["frames"]
        assert [frame["service_results"] for frame in written] == [dialog["turns"][1]["frames"][0]["service_results"]]

    @pytest.mark.parametrize("format", ["sgd", "multiwoz22"])
    def test_toy_corpus_round_trip_keeps_what_is_read(self, tmp_path, toy_corpus, format):
        path = tmp_path / "toy.json"
        write_corpus(toy_corpus, str(path), format=format)
        again = load_corpus(str(path), format=format)
        assert sum(1 for d in again.dialogs for t in d.turns if t.search_results) == 41
        assert _read_view(again) == _read_view(toy_corpus)
        rewritten = tmp_path / "again.json"
        write_corpus(again, str(rewritten), format=format)
        assert rewritten.read_bytes() == path.read_bytes()

    @given(corpus=_native_corpora(), format=st.sampled_from(["sgd", "multiwoz22"]))
    def test_round_trip_keeps_what_is_read(self, tmp_path_factory, corpus, format):
        path = tmp_path_factory.mktemp("round") / "corpus.json"
        write_corpus(corpus, str(path), format=format)
        assert _read_view(load_corpus(str(path), format=format)) == _read_view(corpus)

    @pytest.mark.parametrize("domain, attributes, match", [
        ("hotels_1", {"hotel_name": "x"}, "read back as its name"),
        ("train", {"operator_name": "x"}, "read back as its name"),
        ("train", {"name": "x"}, "read back as its name"),
        ("taxi", {}, "not one of the dialog's services"),
    ])
    def test_unwritable_search_results_rejected(self, tmp_path, domain, attributes, match):
        turns = [Turn(speaker="SYSTEM", utterance="two",
                      search_results=[Entity(domain=domain, name="the palm", attributes=attributes)])]
        corpus = Corpus(dialogs=[Dialog(id="d1", services=["hotels_1", "train"], turns=turns)])
        with pytest.raises(SchemaMismatch, match=match):
            write_corpus(corpus, str(tmp_path / "out.json"), format="sgd")


class TestDatabase:
    def test_shipped_database_covers_27_domains(self, shipped_db):
        assert len(shipped_db.tables) == 27
        assert all(len(entities) >= 14 for entities in shipped_db.tables.values())

    def test_load_requires_name_field(self, tmp_path):
        payload = {"name_fields": {}, "tables": {"hotel": [{"name": "x y"}]}}
        path = tmp_path / "db.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="name_field"):
            load_database(str(path))

    def test_duplicate_names_rejected(self, tmp_path):
        payload = {
            "name_fields": {"hotel": "name"},
            "tables": {"hotel": [{"name": "The Palm"}, {"name": "the palm"}]},
        }
        path = tmp_path / "db.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="duplicate"):
            load_database(str(path))

    def test_write_load_round_trip(self, tmp_path, shipped_db):
        path = tmp_path / "db.json"
        write_database(shipped_db, str(path))
        again = load_database(str(path))
        assert again == shipped_db

    def test_noun_defaults(self):
        db = Database(tables={"movies_2": []}, name_fields={"movies_2": "title"})
        assert db.noun("movies_2") == "movie"


class TestSampleEntities:
    def test_exhaustive_draw(self):
        entities = [Entity(domain="d", name=f"name {i}") for i in range(3)]
        db = Database(tables={"d": entities}, name_fields={"d": "name"})
        drawn = sample_entities(db, "d", 3, seed=5)
        assert sorted(e.name for e in drawn) == sorted(e.name for e in entities)

    def test_deterministic_per_seed(self, shipped_db):
        first = sample_entities(shipped_db, "hotel", 4, seed=42)
        second = sample_entities(shipped_db, "hotel", 4, seed=42)
        assert first == second
        assert len({name_key(e.name) for e in first}) == 4

    def test_not_enough_entities(self):
        db = Database(tables={"d": [Entity(domain="d", name="only one")] * 1}, name_fields={"d": "name"})
        with pytest.raises(NotEnoughEntities) as info:
            sample_entities(db, "d", 6, seed=0)
        assert info.value.have == 1 and info.value.want == 6

    def test_unknown_domain(self, shipped_db):
        with pytest.raises(UnknownDomain):
            sample_entities(shipped_db, "submarines", 3, seed=0)


def test_name_key_normalization():
    assert name_key("  The   Palm!  ") == "the palm"
    assert name_key("chiquito restauraant bar") == "chiquito restauraant bar"
    assert name_key("'quoted'") == "quoted"
