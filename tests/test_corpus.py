from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from disambig.augmenter import AUGMENT_METHODS, augment_corpus, find_augmentable_turns
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
from disambig.metrics import PredictionRow, score
from disambig.resolver import predict_names

from .oracles import slow_load_corpus

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

MULTIWOZ_DIALOG = {
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


# The two domains' offers have distinct names, so an accepted name tells its domain.
_OFFER_NAMES = (("the palm", "crown inn", "rose court"), ("blue door", "old mill", "Café Nord"))
_OFFER_DB = Database(
    tables={service: [Entity(domain=service, name=name) for names in _OFFER_NAMES for name in names]
            for service in _SERVICES},
    name_fields=dict.fromkeys(_SERVICES, "name"),
)


@st.composite
def _two_domain_offers(draw) -> Corpus:
    """A dialog whose system turn offers results of two domains in an order
    of their own, not that of the turn's frames, and a user turn that takes
    up at most one offer of each domain."""
    domains = draw(st.lists(st.sampled_from(_SERVICES), min_size=2, max_size=2, unique=True))
    results = [Entity(domain=domain, name=name)
               for domain, names in zip(domains, _OFFER_NAMES)
               for name in draw(st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True))]
    frames = [Frame(service=domain) for domain in draw(st.lists(st.sampled_from(domains), max_size=2, unique=True))]
    picked = [name for names in _OFFER_NAMES if (name := draw(st.sampled_from((None, *names)))) is not None]
    reply = [Frame(service=domains[0], slot_values={"name": picked})] if picked else []
    turns = [Turn(speaker="USER", utterance="hi", frames=[Frame(service=domains[0], slot_values={"area": ["north"]})]),
             Turn(speaker="SYSTEM", utterance="offers", frames=frames, search_results=draw(st.permutations(results))),
             Turn(speaker="USER", utterance="that one", frames=reply)]
    return Corpus(dialogs=[Dialog(id="d0", services=domains, turns=turns)])


def _augmentable(corpus: Corpus) -> list:
    """Per dialog, each augmentable turn with its domain and accepted entity."""
    return [[(index, pool[0].domain, accepted) for index, pool, accepted
             in find_augmentable_turns(dialog, _OFFER_DB, allowed=set(_SERVICES))]
            for dialog in corpus.dialogs]


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


def _tiny_row() -> dict:
    """The native row of the tiny corpus's dialog, in fresh containers."""
    return json.loads(json.dumps(_tiny_corpus().dialogs[0].to_json()))


def _write_native(path: Path, rows: list[dict], split: str = "train") -> Path:
    meta = {"meta": {"split_name": split, "source_format": "native"}}
    path.write_text("".join(json.dumps(row) + "\n" for row in [meta, *rows]), encoding="utf-8")
    return path


class TestValidation:
    def test_duplicate_dialog_ids(self, tmp_path):
        corpus = _tiny_corpus()
        corpus.dialogs.append(Dialog(id="d1", services=[], turns=[]))
        path = tmp_path / "dup.jsonl"
        write_corpus(corpus, str(path))
        with pytest.raises(SchemaMismatch, match="duplicate dialog id"):
            load_corpus(str(path))

    def test_speakers_must_alternate(self):
        row = _tiny_row()
        row["turns"].append({"speaker": "SYSTEM", "utterance": "again"})
        with pytest.raises(SchemaMismatch, match="alternate"):
            Dialog.from_json(row)

    def test_user_turns_cannot_carry_results(self):
        row = _tiny_row()
        row["turns"][0]["search_results"] = [{"domain": "hotel", "name": "x y"}]
        with pytest.raises(SchemaMismatch, match="search results"):
            Dialog.from_json(row)

    def test_frame_service_must_be_declared(self, tmp_path):
        row = _tiny_row()
        row["turns"][0]["frames"][0]["service"] = "spaceport"
        path = _write_native(tmp_path / "bad.jsonl", [row])
        expected = f"{path}: line 2: dialog 'd1' turn 0: frame service 'spaceport' not in dialog services"
        with pytest.raises(SchemaMismatch, match=f"^{re.escape(expected)}$"):
            load_corpus(str(path))

    def test_empty_slot_values_rejected(self):
        row = _tiny_row()
        row["turns"][0]["frames"][0]["slot_values"] = {"hotel-area": [""]}
        with pytest.raises(SchemaMismatch, match="empty"):
            Dialog.from_json(row)

    def test_entity_requires_name(self):
        with pytest.raises(SchemaMismatch):
            Entity(domain="hotel", name="")

    @pytest.mark.parametrize("mutate, match", [
        (lambda row: row.update(services="hotel"), "services: expected an array"),
        (lambda row: row.update(extras=[["k", "v"]]), "extras: expected an object"),
        (lambda row: row["turns"][0].update(extras=[["k", "v"]]), "turn 0: extras: expected an object"),
        (lambda row: row["turns"][0]["frames"][0].update(extras=[]), "frame extras: expected an object"),
        (lambda row: row["turns"][0]["frames"][0].update(requested_slots="area"), "requested_slots: expected an array"),
        (lambda row: row["turns"][0]["frames"][0]["slot_values"].update({"hotel-area": "north"}),
         "slot 'hotel-area': expected an array"),
        (lambda row: row["turns"][1]["search_results"][0].update(attributes=[["area", "north"]]), "attributes"),
    ], ids=["services", "dialog-extras", "turn-extras", "frame-extras", "requested-slots", "slot-values",
            "entity-attributes"])
    def test_wrong_containers_rejected(self, tmp_path, mutate, match):
        row = _tiny_row()
        mutate(row)
        path = _write_native(tmp_path / "bad.jsonl", [row])
        with pytest.raises(SchemaMismatch, match=f"^{re.escape(str(path))}: line 2: .*{match}"):
            load_corpus(str(path))

    def test_loaded_containers_are_the_decoded_ones(self):
        row = _tiny_row()
        dialog = Dialog.from_json(row)
        frame = dialog.turns[0].frames[0]
        assert dialog.services is row["services"] and dialog.extras is row["extras"]
        assert frame.slot_values is row["turns"][0]["frames"][0]["slot_values"]
        assert dialog.to_json() == _tiny_row()


# Mutations of valid rows.  The parent's loader and the current one must give
# equal corpora or the same error; "container" mutations, which the parent
# coerced into a value, must now be rejected.
_INVARIANT_MUTATIONS = ["none", "bad-speaker", "repeated-speaker", "user-results", "undeclared-service",
                        "empty-slot-name", "bad-value", "missing-key", "duplicate-id"]
_CONTAINER_MUTATIONS = ["services-string", "requested-string", "values-string"]
_NATIVE_CONTAINER_MUTATIONS = ["extras-list", "attributes-list"]
_SGD_NAME_FIELDS = {"hotels_1": "hotel_name", "restaurants_1": "restaurant_name"}


@st.composite
def _rows(draw, format: str) -> list[dict]:
    """Valid rows in ``format``; the first turn of each dialog is a user turn
    with at least one frame holding at least one slot."""
    rows = []
    for number in range(draw(st.integers(1, 3))):
        services = draw(st.lists(st.sampled_from(sorted(_SGD_NAME_FIELDS)), min_size=1, max_size=2, unique=True))
        turns = []
        for index in range(draw(st.integers(2, 4))):
            speaker = ("USER", "SYSTEM")[index % 2]
            frames = []
            for service in draw(st.lists(st.sampled_from(services), min_size=index == 0, max_size=2, unique=True)):
                values = st.lists(st.sampled_from(["north", "4", "the palm"] + ([4] if format == "sgd" else [])),
                                  min_size=1, max_size=2)
                state = {"slot_values": draw(st.dictionaries(st.sampled_from(["area", "stars"]), values,
                                                             min_size=index == 0, max_size=2)),
                         "requested_slots": draw(st.lists(st.just("phone"), max_size=1))}
                names = draw(st.lists(st.sampled_from(["the palm", "crown inn"]), max_size=2, unique=True))
                if format == "native":
                    frames.append({"service": service, **state, "extras": draw(st.sampled_from([{}, {"slots": []}]))})
                    continue
                frame = {"service": service, "slots": []}
                if speaker == "USER":
                    frame["state"] = {"active_intent": "Find", **state}
                elif names:
                    frame["service_results"] = [{_SGD_NAME_FIELDS[service]: name, "area": "north"} for name in names]
                frames.append(frame)
            turn = {"speaker": speaker, "utterance": f"u{index}", "frames": frames}
            if format == "native":
                turn["extras"] = draw(st.sampled_from([{}, {"turn_id": str(index)}]))
                if speaker == "SYSTEM" and names:
                    turn["search_results"] = [{"domain": services[0], "name": name, "attributes": {"area": "north"}}
                                              for name in names]
            turns.append(turn)
        if format == "native":
            rows.append({"id": f"d{number}", "services": services, "turns": turns, "extras": {}})
        else:
            rows.append({"dialogue_id": f"d{number}", "services": services, "turns": turns})
    return rows


@st.composite
def _mutated(draw, format: str) -> tuple[list[dict], str, str]:
    """Rows, the split to declare, and the mutation applied to them."""
    rows = draw(_rows(format))
    kinds = _INVARIANT_MUTATIONS + _CONTAINER_MUTATIONS
    if format == "native":
        kinds += ["bad-split"] + _NATIVE_CONTAINER_MUTATIONS
    kind = draw(st.sampled_from(kinds))
    dialog = draw(st.sampled_from(rows))
    turns = dialog["turns"]
    turn = draw(st.sampled_from(turns))
    frame = turns[0]["frames"][0]
    slot_values = frame["slot_values"] if format == "native" else frame["state"]["slot_values"]
    slot = draw(st.sampled_from(sorted(slot_values)))
    split = "bogus" if kind == "bad-split" else "test"
    if kind == "bad-speaker":
        turn["speaker"] = draw(st.sampled_from(["BOT", "user", 5, None]))
    elif kind == "repeated-speaker":
        index = draw(st.integers(1, len(turns) - 1))
        turns[index]["speaker"] = turns[index - 1]["speaker"]
    elif kind == "user-results":
        if format == "native":
            turns[0]["search_results"] = draw(st.sampled_from([[], [{"domain": dialog["services"][0], "name": "x"}]]))
        else:
            frame["service_results"] = [{_SGD_NAME_FIELDS[frame["service"]]: "the palm"}]
    elif kind == "undeclared-service":
        frame["service"] = "spaceport"
    elif kind == "empty-slot-name":
        slot_values[""] = ["north"]
    elif kind == "bad-value":
        slot_values[slot] = [draw(st.sampled_from(["", 5, None]))]
    elif kind == "missing-key":
        holders = [(dialog, ["id", "services", "turns", "extras"] if format == "native" else
                    ["dialogue_id", "services", "turns"]),
                   (turn, ["speaker", "utterance", "frames", "extras"]),
                   (frame, ["service", "slot_values", "requested_slots", "extras"] if format == "native" else
                    ["service", "state"])]
        for other in turns:
            for entity in other.get("search_results", []):
                holders.append((entity, ["domain", "name", "attributes"]))
            for raw_frame in other["frames"]:
                for record in raw_frame.get("service_results", []):
                    holders.append((record, [_SGD_NAME_FIELDS[raw_frame["service"]]]))
        holder, keys = draw(st.sampled_from(holders))
        holder.pop(draw(st.sampled_from([k for k in keys if k in holder] or ["absent"])), None)
    elif kind == "duplicate-id":
        rows.append(json.loads(json.dumps(rows[0])))
    elif kind == "services-string":
        dialog["services"] = dialog["services"][0]
    elif kind == "requested-string":
        (frame if format == "native" else frame["state"])["requested_slots"] = "phone"
    elif kind == "values-string":
        slot_values[slot] = "north"
    elif kind == "extras-list":
        draw(st.sampled_from([dialog, turn, frame]))["extras"] = [["k", "v"]]
    elif kind == "attributes-list":
        turns[1]["search_results"] = [{"domain": dialog["services"][0], "name": "x", "attributes": [["a", "b"]]}]
    return rows, split, kind


def _outcome(load, path: Path, format: str):
    try:
        return load(str(path), format=format)
    except SchemaMismatch as exc:
        return exc


@settings(max_examples=200)
@given(case=st.sampled_from(["native", "sgd"]).flatmap(lambda f: st.tuples(st.just(f), _mutated(f))))
def test_decoding_matches_the_slow_reference(tmp_path_factory, case):
    format, (rows, split, kind) = case
    directory = tmp_path_factory.mktemp("decode")
    if format == "native":
        path = _write_native(directory / "corpus.jsonl", rows, split)
    else:
        path = directory / "dialogues_001.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
    new = _outcome(load_corpus, path, format)
    if kind in _CONTAINER_MUTATIONS + _NATIVE_CONTAINER_MUTATIONS:
        assert isinstance(new, SchemaMismatch)
        return
    old = _outcome(slow_load_corpus, path, format)
    if isinstance(old, Corpus):
        assert new == old
    else:
        assert type(new) is type(old)
        assert re.fullmatch(rf"({re.escape(str(path))}: line \d+: )?{re.escape(str(old))}", str(new))


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

    def test_errors_after_search_results_name_the_file(self, tmp_path):
        dialog = {"dialogue_id": "x", "services": ["hotels_1"], "turns": [
            {"speaker": "SYSTEM", "utterance": "a",
             "frames": [{"service": "hotels_1", "service_results": [{"hotel_name": "the palm"}]}]},
            {"utterance": "b"}]}
        path = tmp_path / "dialogues_001.json"
        path.write_text(json.dumps([dialog]), encoding="utf-8")
        with pytest.raises(SchemaMismatch) as info:
            load_corpus(str(path), format="sgd")
        assert str(info.value) == f"{path}: turn in 'x' missing speaker/utterance"

    def test_sgd_round_trip_preserves_content(self, sgd_dir, tmp_path):
        corpus = load_corpus(str(sgd_dir), format="sgd")
        out = tmp_path / "rewritten.json"
        write_corpus(corpus, str(out), format="sgd")
        again = load_corpus(str(out), format="sgd")
        assert again.dialogs == corpus.dialogs

    def test_multiwoz22_single_file(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps([MULTIWOZ_DIALOG]), encoding="utf-8")
        corpus = load_corpus(str(path), format="multiwoz22")
        assert corpus.split_name == "dev"
        assert corpus.dialogs[0].turns[0].frames[0].slot_values == {"restaurant-food": ["indian"]}
        assert corpus.dialogs[0].turns[0].extras["turn_id"] == "0"
        assert corpus.dialogs[0].turns[1].search_results is None

    @pytest.mark.parametrize("dialog, format", [(SGD_DIALOG, "sgd"), (MULTIWOZ_DIALOG, "multiwoz22")])
    def test_load_write_gives_back_the_input(self, tmp_path, dialog, format):
        source = tmp_path / "dialogues_001.json"
        source.write_text(json.dumps([dialog]), encoding="utf-8")
        out = tmp_path / "rewritten.json"
        write_corpus(load_corpus(str(source), format=format), str(out), format=format)
        assert json.loads(out.read_text(encoding="utf-8")) == [dialog]

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

    @given(corpus=st.one_of(_native_corpora(), _two_domain_offers()), format=st.sampled_from(["sgd", "multiwoz22"]))
    def test_round_trip_keeps_what_is_read(self, tmp_path_factory, corpus, format):
        path = tmp_path_factory.mktemp("round") / "corpus.json"
        write_corpus(corpus, str(path), format=format)
        copy = load_corpus(str(path), format=format)
        assert _read_view(copy) == _read_view(corpus)
        assert _augmentable(copy) == _augmentable(corpus)

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

    def test_write_rejects_attribute_named_like_the_name_field(self, tmp_path):
        # Written as {"name": "other"}, it would read back named "other".
        db = Database(tables={"d": [Entity(domain="d", name="real name", attributes={"name": "other"})]},
                      name_fields={"d": "name"})
        path = tmp_path / "db.json"
        with pytest.raises(SchemaMismatch, match="read back as its name"):
            write_database(db, str(path))
        assert not path.exists()

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


def test_loaded_corpus_is_never_mutated(tmp_path, repo_root, shipped_db, shipped_grammar):
    """Decoded dialogs hold the containers json.loads built, and augmented
    dialogs share turns with them, so every later stage must leave them alone."""
    corpus = load_corpus(str(repo_root / "data" / "toy_corpus.jsonl"))
    before = [json.dumps(dialog.to_json(), sort_keys=True) for dialog in corpus.dialogs]
    augmented, records, _ = augment_corpus(corpus, shipped_db, shipped_grammar, 3, methods=AUGMENT_METHODS)
    preds = {}
    for r in records:
        if r.skipped_reason is None:
            preds[(r.dialog_id, r.turn_index)] = PredictionRow(r.dialog_id, r.turn_index,
                                                               predict_names(r.candidates, r.user_prefix))
    assert score(preds, augmented, records).entity_accuracy_all is not None
    upsampled = augmented.dialogs + [replace(dialog, id=f"{dialog.id}~up1") for dialog in augmented.dialogs]
    for format in ("native", "sgd", "multiwoz22"):
        write_corpus(corpus, str(tmp_path / f"corpus.{format}"), format=format)
        write_corpus(Corpus(dialogs=upsampled), str(tmp_path / f"upsampled.{format}"), format=format)
    after = [json.dumps(dialog.to_json(), sort_keys=True) for dialog in corpus.dialogs]
    assert [dialog.id for dialog, old, new in zip(corpus.dialogs, before, after) if old != new] == []


def test_name_key_normalization():
    assert name_key("  The   Palm!  ") == "the palm"
    assert name_key("chiquito restauraant bar") == "chiquito restauraant bar"
    assert name_key("'quoted'") == "quoted"
