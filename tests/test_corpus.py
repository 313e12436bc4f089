from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from disambig.augmenter import AUGMENT_METHODS, augment_corpus, find_augmentable_turns
from disambig.corpus import (
    Corpus,
    Database,
    _read_turns,
    dialog_row,
    entity_row,
    load_corpus,
    load_database,
    name_key,
    sample_entities,
    write_corpus,
)
from disambig.errors import SchemaMismatch
from disambig.metrics import score
from disambig.resolver import predict_names

from .oracles import slow_entity_row, slow_load_corpus
from .schema_guided import write_schema_guided

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
        for turn in dialog["turns"]:
            by_domain: dict[str, list] = {}
            for entity in turn.get("search_results", []):
                by_domain.setdefault(entity["domain"], []).append((entity["name"], entity["attributes"]))
            slots = [(frame["service"], frame["slot_values"]) for frame in turn["frames"] if frame["slot_values"]]
            turns.append((turn["speaker"], turn["utterance"], turn["extras"], slots, by_domain))
        view.append((dialog["id"], dialog["services"], turns))
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
                {"service": name, "slot_values": draw(st.dictionaries(
                    st.sampled_from(["area", "stars"]), st.lists(_WORDS, min_size=1, max_size=2), max_size=2))}
                for name in draw(st.lists(service, max_size=2, unique=True))
            ]
            extras = {"disambig": {"origin": "augment", "target_names": ["the palm"]}} if draw(st.booleans()) else {}
            turn = {"speaker": speaker, "utterance": draw(_WORDS), "frames": frames, "extras": extras}
            if speaker == "SYSTEM" and draw(st.booleans()):
                turn["search_results"] = [
                    {"domain": draw(service), "name": draw(_WORDS),
                     "attributes": draw(st.dictionaries(st.sampled_from(["area", "stars"]), _WORDS, max_size=2))}
                    for _ in range(draw(st.integers(0, 4)))
                ]
            turns.append(turn)
        dialogs.append(dialog_row({"id": f"d{number}", "services": services, "turns": turns}))
    return Corpus(dialogs=dialogs)


# The two domains' offers have distinct names, so an accepted name tells its domain.
_OFFER_NAMES = (("the palm", "crown inn", "rose court"), ("blue door", "old mill", "Café Nord"))
_OFFER_DB = Database(
    tables={service: [{"domain": service, "name": name, "attributes": {}} for names in _OFFER_NAMES
                      for name in names] for service in _SERVICES},
)


@st.composite
def _two_domain_offers(draw) -> Corpus:
    """A dialog whose system turn offers results of two domains in an order
    of their own, not that of the turn's frames, and a user turn that takes
    up at most one offer of each domain."""
    domains = draw(st.lists(st.sampled_from(_SERVICES), min_size=2, max_size=2, unique=True))
    results = [{"domain": domain, "name": name}
               for domain, names in zip(domains, _OFFER_NAMES)
               for name in draw(st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True))]
    frames = [{"service": domain} for domain in draw(st.lists(st.sampled_from(domains), max_size=2, unique=True))]
    picked = [name for names in _OFFER_NAMES if (name := draw(st.sampled_from((None, *names)))) is not None]
    reply = [{"service": domains[0], "slot_values": {"name": picked}}] if picked else []
    turns = [{"speaker": "USER", "utterance": "hi",
              "frames": [{"service": domains[0], "slot_values": {"area": ["north"]}}]},
             {"speaker": "SYSTEM", "utterance": "offers", "frames": frames,
              "search_results": draw(st.permutations(results))},
             {"speaker": "USER", "utterance": "that one", "frames": reply}]
    return Corpus(dialogs=[dialog_row({"id": "d0", "services": domains, "turns": turns})])


def _augmentable(corpus: Corpus) -> list:
    """Per dialog, each augmentable turn with its domain and accepted entity."""
    return [[(index, pool[0]["domain"], accepted) for index, pool, accepted
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
        {"speaker": "USER", "utterance": "hi",
         "frames": [{"service": "hotel", "slot_values": {"hotel-area": ["north"]}}]},
        {"speaker": "SYSTEM", "utterance": "two options", "search_results": [
            {"domain": "hotel", "name": "aurora lodge", "attributes": {"area": "north"}},
            {"domain": "hotel", "name": "briar manor", "attributes": {"area": "south"}},
        ]},
    ]
    dialog = dialog_row({"id": "d1", "services": ["hotel"], "turns": turns, "extras": {"note": "kept"}})
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
        (tmp_path / "file").write_text("not a directory\n")  # a missing directory would be made
        with pytest.raises(OSError):
            write_corpus(_tiny_corpus(), str(tmp_path / "file" / "corpus.jsonl"))
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(str(tmp_path / "nope.jsonl"))

    def test_bundled_toy_corpus_has_50_dialogs(self, toy_corpus):
        assert len(toy_corpus.dialogs) == 50


def _tiny_row() -> dict:
    """The native row of the tiny corpus's dialog, in fresh containers."""
    return json.loads(json.dumps(_tiny_corpus().dialogs[0]))


def _write_native(path: Path, rows: list[dict], split: str = "train") -> Path:
    meta = {"meta": {"split_name": split, "source_format": "native"}}
    path.write_text("".join(json.dumps(row) + "\n" for row in [meta, *rows]), encoding="utf-8")
    return path


# JSON values of every scalar type; entity rows take only strings.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(-2, 2), st.text(max_size=3))


class TestValidation:
    def test_duplicate_dialog_ids(self, tmp_path):
        corpus = _tiny_corpus()
        corpus.dialogs.append({"id": "d1", "services": [], "turns": [], "extras": {}})
        path = tmp_path / "dup.jsonl"
        write_corpus(corpus, str(path))
        with pytest.raises(SchemaMismatch, match="duplicate dialog id"):
            load_corpus(str(path))

    def test_speakers_must_alternate(self):
        row = _tiny_row()
        row["turns"].append({"speaker": "SYSTEM", "utterance": "again"})
        with pytest.raises(SchemaMismatch, match="alternate"):
            dialog_row(row)

    def test_user_turns_cannot_carry_results(self):
        row = _tiny_row()
        row["turns"][0]["search_results"] = [{"domain": "hotel", "name": "x y"}]
        with pytest.raises(SchemaMismatch, match="search results"):
            dialog_row(row)

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
            dialog_row(row)

    def test_entity_requires_name(self):
        with pytest.raises(SchemaMismatch):
            entity_row({"domain": "hotel", "name": ""})

    @settings(max_examples=300)
    @given(st.fixed_dictionaries({}, optional={
        "domain": st.one_of(st.sampled_from(["hotel", ""]), _JSON_SCALARS, st.lists(st.just("hotel"), max_size=1)),
        "name": st.one_of(st.sampled_from(["alpha inn", ""]), _JSON_SCALARS, st.lists(st.just("a"), max_size=1)),
        "attributes": st.one_of(st.dictionaries(st.sampled_from(["area", "stars"]), _JSON_SCALARS, max_size=2),
                                _JSON_SCALARS, st.lists(st.just("area"), max_size=1)),
        "extra": _JSON_SCALARS,
    }))
    def test_entity_row_matches_the_entity_class(self, obj):
        """``entity_row`` returns the row that ``Entity`` made or raises its
        error; only a non-string domain, which ``Entity`` let through, is
        refused in its place."""
        def outcome(check):
            try:
                return "row", check(obj)
            except Exception as exc:  # the oracle and the checker must fail alike
                return type(exc), str(exc)

        if "name" in obj and not isinstance(obj.get("domain", ""), str):
            with pytest.raises(SchemaMismatch, match="^entity domain: expected a string"):
                entity_row(obj)
        else:
            assert outcome(entity_row) == outcome(slow_entity_row)

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
        dialog = dialog_row(row)
        frame = dialog["turns"][0]["frames"][0]
        assert dialog["services"] is row["services"] and dialog["extras"] is row["extras"]
        assert frame["slot_values"] is row["turns"][0]["frames"][0]["slot_values"]
        assert dialog == _tiny_row()

    def test_turns_in_table_form_are_kept_as_decoded(self):
        row = _tiny_row()
        assert _read_turns(row["turns"], row) is row["turns"]
        del row["turns"][1]["extras"]
        turns = _read_turns(row["turns"], row)
        assert turns is not row["turns"] and turns == _tiny_row()["turns"]
        assert turns[0] is not row["turns"][0] and turns[1]["extras"] == {}


# Mutations of valid rows.  The slow reference loader and the current one
# must give equal corpora or the same error; "container" mutations, which the
# reference coerces into a value, must be rejected.
_INVARIANT_MUTATIONS = ["none", "bad-speaker", "repeated-speaker", "user-results", "undeclared-service",
                        "service-not-a-string", "empty-slot-name", "bad-value", "missing-key", "duplicate-id"]
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


# Every (format, mutation) pair, each run as its own test.
_MUTATIONS = [(format, kind) for format in ("native", "sgd") for kind in _INVARIANT_MUTATIONS + _CONTAINER_MUTATIONS
              + (["bad-split"] + _NATIVE_CONTAINER_MUTATIONS if format == "native" else [])]


@st.composite
def _mutated(draw, format: str, kind: str) -> tuple[list[dict], str]:
    """Rows with mutation ``kind`` applied to them, at drawn positions, and
    the split to declare."""
    rows = draw(_rows(format))
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
    elif kind == "service-not-a-string":
        dialog["services"].append(draw(st.sampled_from([["hotels_1"], 5, None])))
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
    return rows, split


def _tiny_case(edit) -> list[dict]:
    """The tiny corpus's row after ``edit``."""
    row = _tiny_row()
    edit(row)
    return [row]


# Native rows run as explicit cases: each way a valid row can miss table
# form, which the loader must rebuild rather than keep as decoded, a
# disambig marker and an empty slot name, which it checks either way.
_TINY_CASES = [_tiny_case(edit) for edit in (
    lambda row: row.pop("extras"),
    lambda row: row["turns"][0].pop("extras"),
    lambda row: row["turns"][1].pop("frames"),
    lambda row: row["turns"][0]["frames"][0].pop("requested_slots"),
    lambda row: row["turns"][0]["frames"][0].pop("slot_values"),
    lambda row: row.update(unknown=1),
    lambda row: row["turns"][1].update(unknown=None),
    lambda row: row["turns"][0]["frames"][0].update(unknown=[]),
    lambda row: row["turns"][1]["search_results"][1].update(unknown="x"),
    lambda row: row["turns"][0].update(search_results=None),
    lambda row: row["turns"][1].update(search_results=None),
    lambda row: row["turns"][1]["search_results"][0]["attributes"].update(stars=4),
    lambda row: row["turns"][1]["extras"].update(disambig={"origin": "synth", "method": "exact",
                                                           "target_names": ["aurora lodge"]}),
    lambda row: row["turns"][0]["frames"][0]["slot_values"].update({"": ["north"]}),
)]


def _outcome(load, path: Path, format: str):
    try:
        return load(str(path), format=format)
    except SchemaMismatch as exc:
        return exc


def _assert_decodes_like_the_slow_reference(directory: Path, format: str, rows: list[dict], split: str,
                                            kind: str) -> None:
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
        # JSONL errors name the line; an SGD dialog's own checks name its index.
        prefix = rf"{re.escape(str(path))}: (line|dialog at index) \d+: "
        assert re.fullmatch(rf"({prefix})?{re.escape(str(old))}", str(new))


@pytest.mark.parametrize("format, kind", _MUTATIONS)
@settings(max_examples=10)
@given(data=st.data())
def test_decoding_matches_the_slow_reference(tmp_path_factory, format, kind, data):
    rows, split = data.draw(_mutated(format, kind))
    _assert_decodes_like_the_slow_reference(tmp_path_factory.mktemp("decode"), format, rows, split, kind)


@pytest.mark.parametrize("rows", _TINY_CASES)
def test_tiny_rows_decode_like_the_slow_reference(tmp_path, rows):
    _assert_decodes_like_the_slow_reference(tmp_path, "native", rows, "test", "none")


class TestSchemaGuidedAdapters:
    def test_sgd_directory_loads(self, sgd_dir):
        corpus = load_corpus(str(sgd_dir), format="sgd")
        assert corpus.split_name == "train"
        assert corpus.source_format == "sgd"
        dialog = corpus.dialogs[0]
        assert dialog["id"] == "1_00000"
        results = dialog["turns"][1]["search_results"]
        assert [e["name"] for e in results] == ["the palm", "the crown"]
        assert results[0]["attributes"] == {"star_rating": "4"}
        # unknown fields survive in extras
        assert dialog["turns"][1]["frames"][0]["extras"]["actions"][0]["act"] == "OFFER"
        assert dialog["turns"][0]["frames"][0]["extras"]["state_extras"]["active_intent"] == "SearchHotel"

    def test_directory_without_dialogue_files(self, tmp_path):
        (tmp_path / "dialogues.json").write_text("[]", encoding="utf-8")  # not dialogues_*.json
        with pytest.raises(SchemaMismatch, match=f"^{re.escape(str(tmp_path))}: no dialogues_\\*.json files found$"):
            load_corpus(str(tmp_path), format="sgd")

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
        assert str(info.value) == f"{path}: dialog at index 0: turn in 'x' missing speaker/utterance"

    def test_sgd_round_trip_preserves_content(self, sgd_dir, tmp_path):
        corpus = load_corpus(str(sgd_dir), format="sgd")
        out = tmp_path / "rewritten.json"
        write_schema_guided(corpus, str(out))
        again = load_corpus(str(out), format="sgd")
        assert again.dialogs == corpus.dialogs

    def test_multiwoz22_single_file(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps([MULTIWOZ_DIALOG]), encoding="utf-8")
        corpus = load_corpus(str(path), format="multiwoz22")
        assert corpus.split_name == "dev"
        assert corpus.dialogs[0]["turns"][0]["frames"][0]["slot_values"] == {"restaurant-food": ["indian"]}
        assert corpus.dialogs[0]["turns"][0]["extras"]["turn_id"] == "0"
        assert "search_results" not in corpus.dialogs[0]["turns"][1]

    @pytest.mark.parametrize("dialog, format", [(SGD_DIALOG, "sgd"), (MULTIWOZ_DIALOG, "multiwoz22")])
    def test_load_write_gives_back_the_input(self, tmp_path, dialog, format):
        source = tmp_path / "dialogues_001.json"
        source.write_text(json.dumps([dialog]), encoding="utf-8")
        out = tmp_path / "rewritten.json"
        write_schema_guided(load_corpus(str(source), format=format), str(out))
        assert json.loads(out.read_text(encoding="utf-8")) == [dialog]

    def test_sgd_results_are_written_back_as_read(self, tmp_path):
        dialog = json.loads(json.dumps(SGD_DIALOG))
        dialog["turns"][1]["frames"][0]["service_results"][0]["star_rating"] = 4
        source = tmp_path / "dialogues_001.json"
        source.write_text(json.dumps([dialog]), encoding="utf-8")
        out = tmp_path / "rewritten.json"
        write_schema_guided(load_corpus(str(source), format="sgd"), str(out))
        written = json.loads(out.read_text(encoding="utf-8"))[0]["turns"][1]["frames"]
        assert [frame["service_results"] for frame in written] == [dialog["turns"][1]["frames"][0]["service_results"]]

    @pytest.mark.parametrize("format", ["sgd", "multiwoz22"])
    def test_toy_corpus_round_trip_keeps_what_is_read(self, tmp_path, toy_corpus, format):
        path = tmp_path / "toy.json"
        write_schema_guided(toy_corpus, str(path))
        again = load_corpus(str(path), format=format)
        assert sum(1 for d in again.dialogs for t in d["turns"] if t.get("search_results")) == 41
        assert _read_view(again) == _read_view(toy_corpus)
        rewritten = tmp_path / "again.json"
        write_schema_guided(again, str(rewritten))
        assert rewritten.read_bytes() == path.read_bytes()

    @given(corpus=st.one_of(_native_corpora(), _two_domain_offers()), format=st.sampled_from(["sgd", "multiwoz22"]))
    def test_round_trip_keeps_what_is_read(self, tmp_path_factory, corpus, format):
        path = tmp_path_factory.mktemp("round") / "corpus.json"
        write_schema_guided(corpus, str(path))
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
        """The test writer refuses a corpus it cannot write so that it reads
        back the same, so the round trips above never compare a lossy copy."""
        turns = [{"speaker": "SYSTEM", "utterance": "two",
                  "search_results": [{"domain": domain, "name": "the palm", "attributes": attributes}]}]
        corpus = Corpus(dialogs=[dialog_row({"id": "d1", "services": ["hotels_1", "train"], "turns": turns})])
        with pytest.raises(SchemaMismatch, match=match):
            write_schema_guided(corpus, str(tmp_path / "out.json"))


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

    @pytest.mark.parametrize("names", [["kestrel-lodge", "kestrel lodge"], ["kestrel_lodge", "Kestrel Lodge"]])
    def test_names_read_as_the_same_tokens_rejected(self, names):
        # The resolver reads both as "kestrel lodge", so it would tie them as exact matches.
        with pytest.raises(SchemaMismatch, match="duplicate"):
            Database(tables={"hotel": [{"domain": "hotel", "name": name, "attributes": {}} for name in names]})

    def test_noun_defaults(self):
        db = Database(tables={"movies_2": []})
        assert db.noun("movies_2") == "movie"


class TestSampleEntities:
    def test_exhaustive_draw(self):
        entities = [{"domain": "d", "name": f"name {i}", "attributes": {}} for i in range(3)]
        db = Database(tables={"d": entities})
        drawn = sample_entities(db, "d", 3, seed=5)
        assert sorted(e["name"] for e in drawn) == sorted(e["name"] for e in entities)

    def test_deterministic_per_seed(self, shipped_db):
        first = sample_entities(shipped_db, "hotel", 4, seed=42)
        second = sample_entities(shipped_db, "hotel", 4, seed=42)
        assert first == second
        assert len({name_key(e["name"]) for e in first}) == 4

    def test_not_enough_entities(self):
        db = Database(tables={"d": [{"domain": "d", "name": "only one", "attributes": {}}]})
        with pytest.raises(SchemaMismatch, match="^need 6 distinct entities, table has 1$"):
            sample_entities(db, "d", 6, seed=0)

    def test_unknown_domain(self, shipped_db):
        with pytest.raises(SchemaMismatch, match="^unknown domain 'submarines'$"):
            sample_entities(shipped_db, "submarines", 3, seed=0)


def test_loaded_corpus_is_never_mutated(tmp_path, repo_root, shipped_db, shipped_grammar):
    """Decoded dialogs hold the containers json.loads built, and augmented
    dialogs share turns with them, so every later stage must leave them alone."""
    corpus = load_corpus(str(repo_root / "data" / "toy_corpus.jsonl"))
    before = [json.dumps(dialog, sort_keys=True) for dialog in corpus.dialogs]
    augmented, records, _ = augment_corpus(corpus, shipped_db, shipped_grammar, 3, methods=AUGMENT_METHODS)
    preds = {}
    for r in records:
        if r.skipped_reason is None:
            preds[(r.dialog_id, r.turn_index)] = {"dialog_id": r.dialog_id, "turn_index": r.turn_index,
                                                  "entities": predict_names(r.candidates, r.user_prefix)}
    assert score(preds, augmented, records)["entity_accuracy_all"] is not None
    upsampled = augmented.dialogs + [{**dialog, "id": f"{dialog['id']}~up1"} for dialog in augmented.dialogs]
    write_corpus(corpus, str(tmp_path / "corpus.jsonl"))
    write_corpus(Corpus(dialogs=upsampled), str(tmp_path / "upsampled.jsonl"))
    after = [json.dumps(dialog, sort_keys=True) for dialog in corpus.dialogs]
    assert [dialog["id"] for dialog, old, new in zip(corpus.dialogs, before, after) if old != new] == []


def test_name_key_normalization():
    assert name_key("  The   Palm!  ") == "the palm"
    assert name_key("chiquito restauraant bar") == "chiquito restauraant bar"
    assert name_key("'quoted'") == "quoted"
