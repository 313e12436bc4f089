from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from disambig import cli
from disambig.cli import run
from disambig.corpus import load_corpus, write_corpus

GRAMMAR = "grammars/disambiguation.cfg"
DB = "data/database.json"
TOY = "data/toy_corpus.jsonl"


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrammarCount:
    def test_prints_capacity(self, capsys, repo_root):
        code, out, _ = _run(capsys, "grammar-count", str(repo_root / GRAMMAR), "--start", "SYSTEM_QUESTION")
        assert code == 0
        assert int(out.strip()) >= 2_000_000

    def test_unknown_start_is_validation_error(self, capsys, repo_root):
        code, _, err = _run(capsys, "grammar-count", str(repo_root / GRAMMAR), "--start", "NOPE")
        assert code == 1
        assert "NOPE" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = _run(capsys, "grammar-count", str(tmp_path / "absent.cfg"), "--start", "S")
        assert code == 2


class TestUsageErrors:
    def test_unknown_flag(self, capsys, repo_root):
        code, _, err = _run(capsys, "grammar-count", str(repo_root / GRAMMAR), "--start", "S", "--bogus")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 1

    def test_no_arguments(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 1


_EXAMPLE = json.dumps({
    "system": "hotel a or b?", "user": "a", "method": "exact", "domain": "hotel", "seed": 0,
    "candidates": [{"domain": "hotel", "name": "a"}, {"domain": "hotel", "name": "b"}], "target_names": ["a"],
})


def _example(count: int) -> str:
    candidates = [{"domain": "hotel", "name": f"n{i}"} for i in range(count)]
    return json.dumps({**json.loads(_EXAMPLE), "user": "n0", "candidates": candidates, "target_names": ["n0"][:count]})


def _record(count: int, skipped_reason: str | None = None) -> str:
    candidates = [{"domain": "hotel", "name": f"n{i}"} for i in range(count)]
    return json.dumps({"dialog_id": "d1", "turn_index": 1, "original_system": "s", "new_system": "s",
                       "user_prefix": "n0", "original_user": "u", "candidates": candidates,
                       "target": {"domain": "hotel", "name": "n0"}, "skipped_reason": skipped_reason})


# Two candidates, the first named by a number where a string belongs.
_NUMBER_NAMED = [{"domain": "hotel", "name": 12345678}, {"domain": "hotel", "name": "n0"}]

_PREDICTION = {"dialog_id": "synth-000000", "turn_index": 0, "entities": ["a"]}

# A native corpus whose slot value is a string where a list belongs.
_SLOT_VALUE_NOT_A_LIST = json.dumps({"id": "d1", "services": ["hotel"], "turns": [
    {"speaker": "USER", "utterance": "hi", "frames": [{"service": "hotel", "slot_values": {"hotel-area": "north"}}]}]})


def _hotel_offer(name: object = "aldergate lodge", utterance: object = "that one") -> str:
    """A native dialog whose system turn offers two shipped hotels and whose
    user then takes the first, so ``augment`` rewrites both turns."""
    results = [{"domain": "hotel", "name": name}, {"domain": "hotel", "name": "birchwood innhouse"}]
    return json.dumps({"id": "d1", "services": ["hotel"], "turns": [
        {"speaker": "USER", "utterance": "a hotel please", "frames": [{"service": "hotel"}]},
        {"speaker": "SYSTEM", "utterance": "which one?", "search_results": results},
        {"speaker": "USER", "utterance": utterance,
         "frames": [{"service": "hotel", "slot_values": {"hotel-name": ["aldergate lodge"]}}]}]})


def _sgd_dialog(frame: object) -> dict:
    """A one-turn schema-guided dialog whose only frame is ``frame``."""
    return {"dialogue_id": "d1", "services": ["hotels_1"],
            "turns": [{"speaker": "USER", "utterance": "hi", "frames": [frame]}]}


# A database of five hotels that synth accepts, to be broken one field at a time.
_DATABASE = {"name_fields": {"hotel": "name"}, "nouns": {"hotel": "hotel"}, "tables": {"hotel": [
    {"name": f"{word} lodge", "area": word} for word in ("alder", "birch", "cedar", "elm", "fir")]}}


def _marked_gold(marker: object) -> str:
    """A native dialog whose system turn carries ``marker`` as its gold label."""
    return json.dumps({"id": "d1", "services": ["hotel"], "turns": [
        {"speaker": "SYSTEM", "utterance": "a or b?", "extras": {"disambig": marker}},
        {"speaker": "USER", "utterance": "a"}]})


_MARKER = {"origin": "augment", "method": "exact", "target_names": ["a"]}

# Each case: the files to create under tmp_path, then argv.  An argv token
# naming one of those files becomes its path, OUT becomes an unused path under
# tmp_path, and DB, GRAMMAR and TOY become the shipped files.
_MALFORMED_INPUTS = {
    "resolve-in-not-json": (
        {"in.jsonl": "{oops\n"}, ["resolve", "--in", "in.jsonl", "--out", "OUT"]),
    "resolve-examples-list-row": (
        {"in.jsonl": _EXAMPLE + "\n[1, 2]\n"}, ["resolve", "--in", "in.jsonl", "--out", "OUT"]),
    "resolve-records-list-row": (
        {"in.jsonl": "[1, 2]\n"}, ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"]),
    "score-gold-not-json": (
        {"preds.jsonl": "", "gold.jsonl": "not json\n"}, ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl"]),
    "score-records-list-row": (
        {"preds.jsonl": "", "gold.jsonl": _EXAMPLE + "\n", "records.jsonl": "[1]\n"},
        ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl", "--records", "records.jsonl"]),
    "augment-in-list-row": (
        {"in.jsonl": "[1]\n"}, ["augment", "--in", "in.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"]),
    "stats-meta-not-object": ({"in.jsonl": '{"meta": 5}\n'}, ["stats", "--in", "in.jsonl"]),
    "stats-string-row": ({"in.jsonl": '"x"\n'}, ["stats", "--in", "in.jsonl"]),
    "stats-not-utf8": ({"in.jsonl": b"\xff\n"}, ["stats", "--in", "in.jsonl"]),
    "synth-config-not-json": ({"config.json": "{"}, ["synth", "--config", "config.json", "--out", "OUT"]),
    "synth-config-not-object": ({"config.json": "[1]"}, ["synth", "--config", "config.json", "--out", "OUT"]),
    "synth-config-total-not-counts": (
        {"config.json": '{"total": "abc"}'}, ["synth", "--config", "config.json", "--out", "OUT"]),
    "synth-config-threads-zero": (
        {"config.json": '{"threads": 0}'}, ["synth", "--config", "config.json", "--out", "OUT"]),
    "synth-config-threads-zero-overridden": (
        {"config.json": '{"threads": 0}'}, ["synth", "--config", "config.json", "--threads", "2", "--out", "OUT"]),
    "augment-config-flag-not-bool": (
        {"config.json": '{"mix-methods": "false"}'},
        ["augment", "--in", TOY, "--db", DB, "--grammar", GRAMMAR, "--config", "config.json", "--out", "OUT"]),
    "augment-config-format-not-a-choice": (
        {"config.json": '{"format": "bogus"}'},
        ["augment", "--in", TOY, "--db", DB, "--grammar", GRAMMAR, "--config", "config.json", "--out", "OUT"]),
    "augment-allow-list-not-json": (
        {"allow.json": "["},
        ["augment", "--in", TOY, "--db", DB, "--grammar", GRAMMAR, "--allow-list", "allow.json", "--out", "OUT"]),
    "augment-slot-value-not-a-list": (
        {"in.jsonl": _SLOT_VALUE_NOT_A_LIST + "\n"},
        ["augment", "--in", "in.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"]),
    **{f"resolve-{kind}-{count}-candidates": (
        {"in.jsonl": (_EXAMPLE if kind == "examples" else _record(2)) + "\n" + make(count) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", kind, "--out", "OUT"])
       for kind, make in (("examples", _example), ("records", _record)) for count in (0, 6)},
    **{f"augment-{name}": (
        {"in.jsonl": row + "\n"}, ["augment", "--in", "in.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"])
       for name, row in (("utterance-not-a-string", _hotel_offer(utterance=5)),
                         ("search-result-name-not-a-string", _hotel_offer(name=7)))},
    **{f"resolve-examples-{name}": (
        {"in.jsonl": json.dumps({**json.loads(_EXAMPLE), **change}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--out", "OUT"])
       for name, change in (("system-not-a-string", {"system": 5}), ("user-not-a-string", {"user": 5}),
                            ("candidate-name-not-a-string", {"candidates": _NUMBER_NAMED, "target_names": ["n0"]}))},
    **{f"resolve-records-{name}": (
        {"in.jsonl": json.dumps({**json.loads(_record(2)), **change}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"])
       for name, change in (("user-prefix-not-a-string", {"user_prefix": 5}),
                            ("dialog-id-not-a-string", {"dialog_id": 5}),
                            ("turn-index-string", {"turn_index": "3"}), ("turn-index-bool", {"turn_index": True}),
                            ("candidate-name-not-a-string", {"candidates": _NUMBER_NAMED}),
                            ("target-name-not-a-string", {"target": _NUMBER_NAMED[0]}))},
    **{f"score-preds-{name}": (
        {"preds.jsonl": json.dumps({**_PREDICTION, **change}) + "\n", "gold.jsonl": _EXAMPLE + "\n"},
        ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl"])
       for name, change in (("turn-index-float", {"turn_index": 0.9}), ("turn-index-bool", {"turn_index": False}),
                            ("entities-string", {"entities": "abc"}),
                            ("state-value-string", {"state": {"hotel-area": "north"}}),
                            ("dialog-id-not-a-string", {"dialog_id": ["synth-000000"]}),
                            ("entity-not-a-string", {"entities": [5]}),
                            ("state-value-item-not-a-string", {"state": {"hotel-area": [5]}}))},
    **{f"stats-sgd-{name}": ({"in.json": json.dumps(payload)}, ["stats", "--format", "sgd", "--in", "in.json"])
       for name, payload in (("frame-not-an-object", [_sgd_dialog(1)]),
                             ("state-not-an-object", [_sgd_dialog({"service": "hotels_1", "state": []})]),
                             ("dialog-not-an-object", [1]),
                             ("dialogue-id-not-a-string", [{**_sgd_dialog({"service": "hotels_1"}),
                                                            "dialogue_id": ["a"]}]))},
    **{f"stats-id-{name}": ({"in.jsonl": json.dumps({"id": value, "services": [], "turns": []}) + "\n"},
                            ["stats", "--in", "in.jsonl"])
       for name, value in (("list", ["a"]), ("int", 3))},
    **{f"synth-db-{name}": (
        {"db.json": json.dumps({**_DATABASE, **change})},
        ["synth", "--db", "db.json", "--grammar", GRAMMAR, "--total", "6,0,0", "--splits", "train", "--out", "OUT"])
       for name, change in (("tables-not-an-object", {"tables": [1]}), ("table-not-an-array", {"tables": {"hotel": 5}}),
                            ("record-not-an-object", {"tables": {"hotel": [1]}}), ("nouns-not-an-object", {"nouns": 5}),
                            ("noun-not-a-string", {"nouns": {"hotel": 5}}),
                            ("name-fields-not-an-object", {"name_fields": [["hotel", "name"]]}),
                            ("name-field-not-a-string", {"name_fields": {"hotel": ["name"]}}))},
    **{f"score-gold-{name}": (
        {"preds.jsonl": json.dumps({"dialog_id": "d1", "turn_index": 0, "entities": ["a"]}) + "\n",
         "gold.jsonl": _marked_gold(marker) + "\n"},
        ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl"])
       for name, marker in (("marker-not-an-object", 5),
                            ("marker-without-target-names", {"origin": "augment", "method": "exact"}),
                            ("marker-target-name-not-a-string", {**_MARKER, "target_names": [5]}),
                            ("marker-method-not-a-string", {**_MARKER, "method": ["x"]}),
                            ("marker-origin-not-a-string", {**_MARKER, "origin": 5}))},
    "stats-marker-not-an-object": ({"in.jsonl": _marked_gold(5) + "\n"}, ["stats", "--in", "in.jsonl"]),
    "augment-marker-not-an-object": (
        {"in.jsonl": _marked_gold(5) + "\n"},
        ["augment", "--in", "in.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"]),
    "resolve-records-skipped-reason-not-a-string": (
        {"in.jsonl": _record(2, skipped_reason=5) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"]),
    "synth-methods-empty": (
        {}, ["synth", "--db", DB, "--grammar", GRAMMAR, "--per-method", "1,1,1", "--methods", ",", "--out", "OUT"]),
    "synth-splits-bogus": (
        {}, ["synth", "--db", DB, "--grammar", GRAMMAR, "--per-method", "1,1,1", "--splits", "test,bogus",
             "--out", "OUT"]),
    "grammar-count-grammar-not-utf8": ({"g.cfg": b"S -> \xff\n"}, ["grammar-count", "g.cfg", "--start", "S"]),
    "synth-grammar-not-utf8": (
        {"g.cfg": b"S -> \xff\n"}, ["synth", "--db", DB, "--grammar", "g.cfg", "--total", "1,0,0", "--out", "OUT"]),
    "augment-grammar-not-utf8": (
        {"g.cfg": b"S -> \xff\n"}, ["augment", "--in", TOY, "--db", DB, "--grammar", "g.cfg", "--out", "OUT"]),
    "stats-nested-too-deep": ({"in.jsonl": "[" * 100_000 + "\n"}, ["stats", "--in", "in.jsonl"]),
    "stats-sgd-nested-too-deep": ({"in.json": "[" * 100_000}, ["stats", "--format", "sgd", "--in", "in.json"]),
    "resolve-nested-too-deep": ({"in.jsonl": "[" * 100_000 + "\n"}, ["resolve", "--in", "in.jsonl", "--out", "OUT"]),
    "synth-db-without-tables": (
        {"db.json": '{"name_fields": {}, "tables": {}}'},
        ["synth", "--db", "db.json", "--grammar", GRAMMAR, "--total", "1,0,0", "--out", "OUT"]),
    **{f"{command}-grammar-without-user-answer": (
        {"g.cfg": "SYSTEM_QUESTION -> pick {option_list}\n"}, [command, *extra, "--grammar", "g.cfg", "--out", "OUT"])
       for command, extra in (("synth", ["--db", DB, "--total", "1,0,0"]), ("augment", ["--in", TOY, "--db", DB]))},
}


@pytest.mark.parametrize("files, argv", _MALFORMED_INPUTS.values(), ids=list(_MALFORMED_INPUTS))
def test_malformed_input_is_a_validation_error(capsys, tmp_path, repo_root, files, argv):
    paths = {name: tmp_path / name for name in files}
    for name, content in files.items():
        paths[name].write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    paths.update({shipped: repo_root / shipped for shipped in (DB, GRAMMAR, TOY)})
    before = {name: _digest(path) for name, path in paths.items()}
    argv = [str(tmp_path / "out") if token == "OUT" else str(paths.get(token, token)) for token in argv]
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert {name: _digest(path) for name, path in paths.items()} == before
    assert not (tmp_path / "out").exists()


def test_missing_grammar_start_is_reported_alike(capsys, tmp_path, repo_root):
    grammar = tmp_path / "g.cfg"
    grammar.write_text("SYSTEM_QUESTION -> pick {option_list}\n", encoding="utf-8")
    common = ["--db", str(repo_root / DB), "--grammar", str(grammar), "--out", str(tmp_path / "out")]
    synth = _run(capsys, "synth", *common, "--total", "1,0,0")
    augment = _run(capsys, "augment", *common, "--in", str(repo_root / TOY))
    assert synth == augment == (1, "", "error: unknown start symbol or rule name 'USER_ANSWER'\n")


@pytest.mark.parametrize("command, given, missing", [
    ("synth", ["--total", "1,0,0"], DB),
    ("synth", ["--total", "1,0,0", "--db", DB], GRAMMAR),
    ("augment", ["--in", TOY, "--grammar", GRAMMAR], DB),
])
def test_missing_default_data_file_is_an_io_error(capsys, monkeypatch, tmp_path, repo_root, command, given, missing):
    argv = [command, *(str(repo_root / t) if t in (DB, GRAMMAR, TOY) else t for t in given), "--out", "o"]
    monkeypatch.chdir(tmp_path)  # where the relative defaults do not exist
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("i/o error:") and missing in err
    assert list(tmp_path.iterdir()) == []


def test_empty_file_is_zero_rows(capsys, tmp_path):
    empty, preds = tmp_path / "empty.jsonl", tmp_path / "preds.jsonl"
    empty.write_bytes(b"")
    code, _, err = _run(capsys, "resolve", "--in", str(empty), "--out", str(preds))
    assert (code, err) == (0, f"resolved 0 rows from {empty}\n")
    assert preds.read_bytes() == b""
    code, out, _ = _run(capsys, "score", "--preds", str(preds), "--gold", str(empty))
    assert code == 0
    assert json.loads(out)["counts"]["turns_total"] == 0


# Every value-taking flag of synth and augment that --config may set, except
# the required ones: (command, flag, default, (text, JSON, parsed) twice).
_CONFIGURABLE_FLAGS = [
    *((command, flag, default, ("a.json", "a.json", "a.json"), ("b.json", "b.json", "b.json"))
      for command in ("synth", "augment") for flag, default in (("db", DB), ("grammar", GRAMMAR))),
    *((command, "seed", 0, ("7", 7, 7), ("9", 9, 9)) for command in ("synth", "augment")),
    *((command, "threads", None, ("2", 2, 2), ("8", 8, 8)) for command in ("synth", "augment")),
    ("synth", "total", None, ("3,0,5", [3, 0, 5], (3, 0, 5)), ("7", 7, (7, 7, 7))),
    ("synth", "per-method", None, ("2,0,0", [2, 0, 0], (2, 0, 0)), ("0,1,4", "0,1,4", (0, 1, 4))),
    ("synth", "methods", None, ("exact,typo", "exact,typo", "exact,typo"), ("partial", "partial", "partial")),
    ("synth", "splits", "train,dev,test", ("test", "test", "test"), ("train,dev", ["train", "dev"], "train,dev")),
    ("augment", "format", "native", ("sgd", "sgd", "sgd"), ("multiwoz22", "multiwoz22", "multiwoz22")),
    ("augment", "allow-list", None, ("a.json", "a.json", "a.json"), ("b.json", "b.json", "b.json")),
]


@pytest.mark.parametrize("command, flag, default, first, second", _CONFIGURABLE_FLAGS,
                         ids=[f"{command}-{flag}" for command, flag, *_ in _CONFIGURABLE_FLAGS])
def test_config_precedence(monkeypatch, tmp_path, command, flag, default, first, second):
    parsed = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda args: parsed.append(args) or 0)
    dest = flag.replace("-", "_")
    required = ["--out", "o"] + (["--in", "in.jsonl"] if command == "augment" else [])

    def value_of(*extra: str, config: dict | None = None):
        argv = [command, *required, *extra]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        assert run(argv) == 0
        return getattr(parsed.pop(), dest)

    (text, config_value, value), (other_text, _, other_value) = first, second
    assert value_of(f"--{flag}", text) == value
    assert value_of(config={flag: config_value}) == value
    assert value_of(f"--{flag}", other_text, config={flag: config_value}) == other_value
    assert value_of(config={}) == default
    assert value_of() == default


@pytest.mark.parametrize("command", ["synth", "augment"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_rejected(capsys, tmp_path, repo_root, command, value):
    extra = ["--in", str(repo_root / TOY)] if command == "augment" else []
    code, _, err = _run(capsys, command, *extra, "--out", str(tmp_path / "o"), "--threads", value)
    assert code == 1
    assert "--threads" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag, value", [
    *(("resolve", "--max-fuzzy", v) for v in ("nan", "inf", "-0.1", "1.5", "abc")),
    *(("upsample", "--factor", v) for v in ("nan", "inf", "-inf", "-1")),
])
def test_float_flags_reject_non_finite_and_out_of_range(capsys, tmp_path, repo_root, command, flag, value):
    code, _, err = _run(capsys, command, "--in", str(repo_root / TOY), "--out", str(tmp_path / "o"), f"{flag}={value}")
    assert code == 1
    assert f"argument {flag}: expected a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestSynth:
    def test_deterministic_across_runs_and_threads(self, capsys, tmp_path, repo_root):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        base = ["synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                "--per-method", "4,1,1", "--seed", "7", "--splits", "train,test"]
        assert _run(capsys, *base, "--out", str(out1))[0] == 0
        assert _run(capsys, *base, "--out", str(out2))[0] == 0
        assert _run(capsys, *base, "--out", str(out3), "--threads", "8")[0] == 0
        for split in ("train", "test"):
            first = (out1 / f"{split}.jsonl").read_bytes()
            assert first == (out2 / f"{split}.jsonl").read_bytes()
            assert first == (out3 / f"{split}.jsonl").read_bytes()
        assert not (out1 / "dev.jsonl").exists()

    def test_inputs_unmodified(self, capsys, tmp_path, repo_root):
        before = (_digest(repo_root / DB), _digest(repo_root / GRAMMAR))
        code, _, _ = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                          "--per-method", "1,1,1", "--out", str(tmp_path / "o"), "--seed", "0")
        assert code == 0
        assert (_digest(repo_root / DB), _digest(repo_root / GRAMMAR)) == before

    def test_method_subset(self, capsys, tmp_path, repo_root):
        code, _, _ = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                          "--per-method", "3,0,0", "--methods", "exact,typo",
                          "--splits", "train", "--out", str(tmp_path / "o"), "--seed", "1")
        assert code == 0
        rows = [json.loads(line) for line in (tmp_path / "o" / "train.jsonl").read_text().splitlines()]
        assert len(rows) == 6
        assert {r["method"] for r in rows} == {"exact", "typo"}

    def test_config_file_mirrors_flags(self, capsys, tmp_path, repo_root):
        config = {"db": str(repo_root / DB), "grammar": str(repo_root / GRAMMAR), "per-method": [2, 0, 0]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, _ = _run(capsys, "synth", "--config", str(config_path), "--splits", "train",
                          "--out", str(tmp_path / "o"), "--seed", "0")
        assert code == 0
        assert len((tmp_path / "o" / "train.jsonl").read_text().splitlines()) == 12

    @pytest.mark.parametrize("extra, split, rows", [
        ((), "test", 5),
        (("--splits", "train", "--total", "3,0,0"), "train", 3),  # the command line beats the config
    ])
    def test_config_sets_flags_that_have_defaults(self, capsys, tmp_path, repo_root, extra, split, rows):
        config = {"db": str(repo_root / DB), "grammar": str(repo_root / GRAMMAR), "splits": "test", "total": [0, 0, 5]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, _ = _run(capsys, "synth", "--config", str(config_path), *extra, "--out", str(tmp_path / "o"))
        assert code == 0
        assert [p.name for p in (tmp_path / "o").iterdir()] == [f"{split}.jsonl"]
        assert len((tmp_path / "o" / f"{split}.jsonl").read_text().splitlines()) == rows


    @pytest.mark.parametrize("extra, config", [
        (("--total", "7,0,0", "--per-method", "1,0,0"), None),
        (("--total", "7,0,0"), {"per-method": [1, 0, 0]}),  # a config value counts as set
        ((), {"total": [7, 0, 0], "per-method": [1, 0, 0]}),
    ])
    def test_total_and_per_method_together_fail(self, capsys, tmp_path, repo_root, extra, config):
        argv = ["synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR), *extra,
                "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "--per-method" in err
        assert not (tmp_path / "o").exists()


# sha256 of the seed-0 toy-corpus outputs, taken before augment_dialog
# stopped deep-copying dialogs; a speed change must not move a byte.
_AUGMENT_PINS = {
    "plain": {
        "corpus.jsonl": "447bf0be949e3f064ab8dd4c41c728b42610f28d2fa31d8581517999303cc61f",
        "records.jsonl": "050d0a0038fe51667b0727bf4a34e981ec07a82045f0c10002288129871ce7f3",
        "stats.json": "4078015371574ae62a022567e2d4c5145dba3f95ef8ac878d960dcd8feb23d27",
    },
    "mixed": {
        "corpus.jsonl": "8172cfa425fe862631e967dd51fd643e1a0a364aca80620437bcc78ae6d0660f",
        "records.jsonl": "677454ea45e7d6bbf9538b9325b1eef4096dcb4df271be3289e4d09bb11de540",
    },
}
_SCORE_RECORDS_MIXED_PIN = "aefee47d705b88fdfb48c28c25f92c569ba9f4f313263102ac084303fdad6d73"


class TestAugment:
    def _augment(self, capsys, tmp_path, repo_root, out_name: str, *extra: str, seed: str = "5") -> Path:
        out = tmp_path / out_name
        code, _, _ = _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
                          "--grammar", str(repo_root / GRAMMAR), "--out", str(out), "--seed", seed, *extra)
        assert code == 0
        return out

    def test_outputs_and_determinism(self, capsys, tmp_path, repo_root):
        first = self._augment(capsys, tmp_path, repo_root, "a")
        second = self._augment(capsys, tmp_path, repo_root, "b")
        threaded = self._augment(capsys, tmp_path, repo_root, "c", "--threads", "8")
        for name in ("corpus.jsonl", "records.jsonl", "stats.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
            assert (first / name).read_bytes() == (threaded / name).read_bytes()
        stats = json.loads((first / "stats.json").read_text())
        assert stats["turns_modified"] == 16
        assert stats["dialogs_total"] == 50

    def test_input_unmodified(self, capsys, tmp_path, repo_root):
        before = _digest(repo_root / TOY)
        self._augment(capsys, tmp_path, repo_root, "o")
        assert _digest(repo_root / TOY) == before

    def test_allow_list_flag(self, capsys, tmp_path, repo_root):
        allow = tmp_path / "allow.json"
        allow.write_text(json.dumps(["attraction"]), encoding="utf-8")
        out = self._augment(capsys, tmp_path, repo_root, "restricted", "--allow-list", str(allow))
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["per_domain"]) == {"attraction"}

    def test_outputs_are_pinned(self, capsys, tmp_path, repo_root):
        for kind, extra in (("plain", ()), ("mixed", ("--mix-methods",))):
            out = self._augment(capsys, tmp_path, repo_root, kind, *extra, seed="0")
            for name, digest in _AUGMENT_PINS[kind].items():
                assert _digest(out / name) == digest, (kind, name)

    def test_score_records_is_pinned(self, capsys, tmp_path, repo_root):
        out = self._augment(capsys, tmp_path, repo_root, "mixed", "--mix-methods", seed="0")
        preds, report = tmp_path / "preds.jsonl", tmp_path / "score.json"
        assert _run(capsys, "resolve", "--in", str(out / "records.jsonl"), "--kind", "records",
                    "--out", str(preds))[0] == 0
        assert _run(capsys, "score", "--preds", str(preds), "--gold", str(out / "corpus.jsonl"),
                    "--records", str(out / "records.jsonl"), "--out", str(report))[0] == 0
        assert _digest(report) == _SCORE_RECORDS_MIXED_PIN

    @pytest.mark.parametrize("value, kind", [(True, "mixed"), (False, "plain")])
    def test_config_sets_a_flag_without_value(self, capsys, tmp_path, repo_root, value, kind):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mix-methods": value}), encoding="utf-8")
        out = self._augment(capsys, tmp_path, repo_root, "o", "--config", str(config), seed="0")
        assert _digest(out / "records.jsonl") == _AUGMENT_PINS[kind]["records.jsonl"]

    def test_command_line_flag_wins_over_config_false(self, capsys, tmp_path, repo_root):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mix-methods": False}), encoding="utf-8")
        out = self._augment(capsys, tmp_path, repo_root, "o", "--config", str(config), "--mix-methods", seed="0")
        assert _digest(out / "records.jsonl") == _AUGMENT_PINS["mixed"]["records.jsonl"]

    def test_config_sets_format(self, capsys, tmp_path, repo_root):
        sgd = tmp_path / "toy_sgd.json"
        write_corpus(load_corpus(str(repo_root / TOY)), str(sgd), format="sgd")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "sgd"}), encoding="utf-8")
        outputs = []
        for name, extra in (("flag", ("--format", "sgd")), ("config", ("--config", str(config)))):
            outputs.append(tmp_path / name)
            code, _, _ = _run(capsys, "augment", "--in", str(sgd), "--db", str(repo_root / DB),
                              "--grammar", str(repo_root / GRAMMAR), "--out", str(outputs[-1]), "--seed", "0", *extra)
            assert code == 0, name
        for name in ("corpus.jsonl", "records.jsonl", "stats.json"):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        stats = json.loads((outputs[1] / "stats.json").read_text())
        assert stats["turns_total"] == 800
        assert stats["turns_modified"] == 16  # as many as on the native file

    def test_refuses_to_overwrite_its_config(self, capsys, tmp_path, repo_root):
        out = tmp_path / "cfg" / "out"
        out.mkdir(parents=True)
        config = out / "stats.json"
        config.write_text(json.dumps({"seed": 0}), encoding="utf-8")
        before = config.read_bytes()
        code, _, err = _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
                            "--grammar", str(repo_root / GRAMMAR), "--out", str(out), "--config", str(config))
        assert code == 1
        assert err.startswith("error:") and "overwrite" in err
        assert config.read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["stats.json"]

    def test_command_line_format_beats_config(self, capsys, tmp_path, repo_root):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "sgd"}), encoding="utf-8")
        out = self._augment(capsys, tmp_path, repo_root, "o", "--config", str(config), "--format", "native", seed="0")
        for name, digest in _AUGMENT_PINS["plain"].items():
            assert _digest(out / name) == digest, name


class TestStats:
    def test_matches_expected(self, capsys, repo_root, toy_expected):
        code, out, _ = _run(capsys, "stats", "--in", str(repo_root / TOY))
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == pytest.approx(toy_expected["multi_result"]["overall"])
        assert report["per_service"] == pytest.approx(toy_expected["multi_result"]["per_service"])

    def test_refuses_to_overwrite_a_file_of_a_schema_guided_directory(self, capsys, tmp_path, repo_root):
        dialogs = tmp_path / "sgd" / "dialogues_001.json"
        dialogs.parent.mkdir()
        write_corpus(load_corpus(str(repo_root / TOY)), str(dialogs), format="sgd")
        before = dialogs.read_bytes()
        code, _, err = _run(capsys, "stats", "--in", str(dialogs.parent), "--format", "sgd", "--out", str(dialogs))
        assert code == 1
        assert err.startswith("error:") and "overwrite" in err
        assert dialogs.read_bytes() == before


class TestUpsample:
    def test_duplicates_augmented_dialogs(self, capsys, tmp_path, repo_root):
        augmented = tmp_path / "aug"
        _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
             "--grammar", str(repo_root / GRAMMAR), "--out", str(augmented), "--seed", "0")
        out = tmp_path / "upsampled.jsonl"
        code, _, _ = _run(capsys, "upsample", "--in", str(augmented / "corpus.jsonl"),
                          "--out", str(out), "--factor", "1.0")
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        marked = [r for r in rows if any("disambig" in t["extras"] for t in r["turns"])]
        assert len(marked) == 50  # factor 1.0 of a 50-dialog corpus
        ids = [r["id"] for r in rows]
        assert len(ids) == len(set(ids))

    # sha256 of the upsampled seed-0 augmented toy corpus, taken while
    # upsample still copied each dialog through JSON.
    @pytest.mark.parametrize("factor, digest", [
        ("3", "b91b01ec38e0bf3f2efa7be6c23ef48717416964853c6a96ecf78b3f1045c120"),
        ("0.5", "bdf8a0d9ab1efd18cb087ae80a673478f6f7332452de1ce3fb627a768f256661"),
    ])
    def test_output_is_pinned(self, capsys, tmp_path, repo_root, factor, digest):
        augmented = tmp_path / "aug"
        _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
             "--grammar", str(repo_root / GRAMMAR), "--out", str(augmented), "--seed", "0")
        out = tmp_path / "upsampled.jsonl"
        assert _run(capsys, "upsample", "--in", str(augmented / "corpus.jsonl"), "--out", str(out),
                    "--factor", factor)[0] == 0
        assert _digest(out) == digest

    def test_upsampling_its_own_output_keeps_ids_unique(self, capsys, tmp_path, repo_root):
        augmented = tmp_path / "aug"
        _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
             "--grammar", str(repo_root / GRAMMAR), "--out", str(augmented), "--seed", "0")
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        assert _run(capsys, "upsample", "--in", str(augmented / "corpus.jsonl"), "--out", str(once),
                    "--factor", "0.5")[0] == 0
        assert _run(capsys, "upsample", "--in", str(once), "--out", str(twice), "--factor", "1")[0] == 0
        ids = [d.id for d in load_corpus(str(twice)).dialogs]
        assert len(ids) == len(set(ids))
        assert "hotel_accept_2nd~up2" in ids  # ~up1 was already taken by the first run
        assert _run(capsys, "stats", "--in", str(twice))[0] == 0

    def test_without_augmented_rows_fails(self, capsys, tmp_path, repo_root):
        out = tmp_path / "up.jsonl"
        code, _, err = _run(capsys, "upsample", "--in", str(repo_root / TOY), "--out", str(out))
        assert code == 1
        assert "augmented" in err

    def test_refuses_to_overwrite_input(self, capsys, repo_root):
        code, _, err = _run(capsys, "upsample", "--in", str(repo_root / TOY), "--out", str(repo_root / TOY))
        assert code == 1
        assert "overwrite" in err


class TestResolveAndScore:
    @pytest.fixture
    def synth_dir(self, capsys, tmp_path, repo_root) -> Path:
        out = tmp_path / "synth"
        code, _, _ = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                          "--per-method", "0,0,5", "--splits", "test", "--out", str(out), "--seed", "3")
        assert code == 0
        return out

    def test_examples_pipeline(self, capsys, tmp_path, synth_dir):
        preds = tmp_path / "preds.jsonl"
        code, _, _ = _run(capsys, "resolve", "--in", str(synth_dir / "test.jsonl"), "--out", str(preds))
        assert code == 0
        report_path = tmp_path / "report.json"
        code, _, _ = _run(capsys, "score", "--preds", str(preds), "--gold", str(synth_dir / "test.jsonl"),
                          "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["counts"]["turns_with_gold_targets"] == 30
        assert set(report["per_method"]) == {"exact", "positional", "partial", "typo", "multiple", "attribute"}
        assert report["entity_accuracy_all"] >= 0.9

    def test_skipped_records_are_not_resolved(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(_record(7, "not_enough_entities") + "\n" + _record(2) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        code, _, err = _run(capsys, "resolve", "--in", str(records), "--out", str(preds))
        assert code == 0, err
        assert [json.loads(line) for line in preds.read_text().splitlines()] == [
            {"dialog_id": "d1", "turn_index": 1, "entities": ["n0"]}]

    def test_records_pipeline(self, capsys, tmp_path, repo_root):
        augmented = tmp_path / "aug"
        _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
             "--grammar", str(repo_root / GRAMMAR), "--out", str(augmented), "--seed", "0")
        preds = tmp_path / "preds.jsonl"
        code, _, _ = _run(capsys, "resolve", "--in", str(augmented / "records.jsonl"), "--out", str(preds))
        assert code == 0
        code, out, _ = _run(capsys, "score", "--preds", str(preds),
                            "--gold", str(augmented / "corpus.jsonl"),
                            "--records", str(augmented / "records.jsonl"))
        assert code == 0
        report = json.loads(out)
        assert report["entity_accuracy_augmented"] == 1.0
        assert report["counts"]["turns_augmented"] == 16

    def test_predictions_are_pinned(self, capsys, tmp_path, repo_root):
        # Digests of the resolver's output before its edit-distance cutoff; a
        # speed change to the resolver must not move a byte of them.
        split = tmp_path / "synth" / "test.jsonl"
        code, _, _ = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                          "--per-method", "0,0,100", "--splits", "test", "--out", str(split.parent), "--seed", "0")
        assert code == 0
        assert _digest(split) == "ac9ed958eec6942f39e947decd6150f587f94f9d0f35db5281e2e2b47ad422a4"
        pinned = {
            "0.25": "e2249413298f44313919d94f976d5a6625b333939461a3c98f0927b9b7d8ae85",
            "0.4": "81f2a055e792d03d8b00ba2cacfae5cd36446827675910c8c178b64ac2d0dcaa",
        }
        for max_fuzzy, digest in pinned.items():
            preds = tmp_path / f"preds-{max_fuzzy}.jsonl"
            code, _, _ = _run(capsys, "resolve", "--in", str(split), "--out", str(preds), "--max-fuzzy", max_fuzzy)
            assert code == 0
            assert _digest(preds) == digest, max_fuzzy

    def test_attribute_predictions_are_pinned(self, capsys, tmp_path, repo_root):
        # Attribute replies pass through every earlier stage, so they carry
        # most of the fuzzy pairs the character-set screen drops; at 1 the
        # budget is the whole longer length.  Digests taken before the screen.
        split = tmp_path / "synth" / "test.jsonl"
        code, _, _ = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                          "--methods", "attribute", "--per-method", "0,0,200", "--splits", "test",
                          "--out", str(split.parent), "--seed", "0")
        assert code == 0
        assert _digest(split) == "f1327770b50ff24f2e2194cc68f5bc58d43c4f75f031d24bc69f874f6d619800"
        pinned = {
            "0": "65abe8677501e131dc0d0e504dc3f71a998514bb7c979d2c823cede3c0e81201",
            "0.25": "65abe8677501e131dc0d0e504dc3f71a998514bb7c979d2c823cede3c0e81201",
            "1": "009b638d9e7860411d679b974809c884c54fa57a6d88e031aea4e1ce36f3f262",
        }
        for max_fuzzy, digest in pinned.items():
            preds = tmp_path / f"preds-{max_fuzzy}.jsonl"
            code, _, _ = _run(capsys, "resolve", "--in", str(split), "--out", str(preds), "--max-fuzzy", max_fuzzy)
            assert code == 0
            assert _digest(preds) == digest, max_fuzzy

    def test_score_missing_prediction(self, capsys, tmp_path, synth_dir):
        preds = tmp_path / "preds.jsonl"
        _run(capsys, "resolve", "--in", str(synth_dir / "test.jsonl"), "--out", str(preds))
        lines = preds.read_text().splitlines()
        preds.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        code, _, err = _run(capsys, "score", "--preds", str(preds), "--gold", str(synth_dir / "test.jsonl"))
        assert code == 1
        assert "synth-000000" in err
