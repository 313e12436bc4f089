from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import disambig
from disambig import cli
from disambig.cli import run
from disambig.corpus import load_corpus
from disambig.seeding import derive_seed

from .schema_guided import write_schema_guided
from .test_cli_contract import _DATABASE, _digest, _example, _record

GRAMMAR = "grammars/disambiguation.cfg"
DB = "data/database.json"
TOY = "data/toy_corpus.jsonl"


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


def test_missing_grammar_start_is_reported_alike(capsys, tmp_path, repo_root):
    grammar = tmp_path / "g.cfg"
    grammar.write_text("SYSTEM_QUESTION -> pick {option_list}\n", encoding="utf-8")
    common = ["--db", str(repo_root / DB), "--grammar", str(grammar), "--out", str(tmp_path / "out")]
    synth = _run(capsys, "synth", *common, "--total", "1,0,0")
    augment = _run(capsys, "augment", *common, "--in", str(repo_root / TOY))
    assert synth == augment == (1, "", f"error: {grammar}: unknown start symbol or rule name 'USER_ANSWER'\n")


def _shipped_grammar_without(repo_root: Path, rule: str, path: Path) -> Path:
    """The shipped grammar with every line that names ``rule`` taken out."""
    lines = (repo_root / GRAMMAR).read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(line for line in lines if rule not in line), encoding="utf-8")
    return path


def test_attribute_mentions_need_the_grammar_rule(capsys, tmp_path, repo_root):
    grammar = _shipped_grammar_without(repo_root, "ATTRIBUTE_MENTION", tmp_path / "g.cfg")
    common = ["--db", str(repo_root / DB), "--grammar", str(grammar)]
    synth = ["synth", *common, "--total", "0,0,6", "--splits", "test"]
    missing = (1, "", f"error: {grammar}: unknown start symbol or rule name 'ATTRIBUTE_MENTION'\n")
    assert _run(capsys, *synth, "--out", str(tmp_path / "a")) == missing
    # Seed 1 gives some of the toy corpus's turns an attribute mention; seed 0 gives none.
    augment = ["augment", *common, "--in", str(repo_root / TOY), "--seed", "1"]
    assert _run(capsys, *augment, "--mix-methods", "--out", str(tmp_path / "b")) == missing
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    code, _, _ = _run(capsys, *synth, "--methods", "exact,typo", "--out", str(tmp_path / "c"))
    assert code == 0
    code, _, _ = _run(capsys, *augment, "--out", str(tmp_path / "d"))
    assert code == 0


@pytest.mark.parametrize("rule, total", [("USER_ANSWER", "0,0,2"), ("ATTRIBUTE_MENTION", "1,0,6")])
def test_failed_synth_leaves_no_split_behind(capsys, tmp_path, repo_root, rule, total):
    # The grammar is refused before any split is made.
    grammar = _shipped_grammar_without(repo_root, rule, tmp_path / "g.cfg")
    code, _, err = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(grammar), "--total", total,
                        "--splits", "train,test", "--out", str(tmp_path / "out"))
    assert code == 1
    assert err == f"error: {grammar}: unknown start symbol or rule name {rule!r}\n"
    assert not (tmp_path / "out").exists()


def test_synth_failing_midway_leaves_no_split_behind(capsys, tmp_path, repo_root):
    # train's one row and test's first are hotels; test's second row is drawn
    # from a table of two inns, too few to list, after train is made.
    inns = [{"name": f"{word} inn", "area": word} for word in ("oak", "ash")]
    db = tmp_path / "db.json"
    db.write_text(json.dumps({**_DATABASE, "name_fields": {"hotel": "name", "inn": "name"},
                              "tables": {**_DATABASE["tables"], "inn": inns}}), encoding="utf-8")
    code, _, err = _run(capsys, "synth", "--db", str(db), "--grammar", str(repo_root / GRAMMAR), "--methods", "exact",
                        "--total", "1,0,2", "--splits", "train,test", "--out", str(tmp_path / "out"))
    assert (code, err) == (1, "error: need 5 distinct entities, table has 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("linked, argv", [
    ("corpus.jsonl", ["stats", "--in", "corpus.jsonl", "--out", "LINK"]),
    ("corpus.jsonl", ["upsample", "--in", "corpus.jsonl", "--out", "LINK"]),
    ("records.jsonl", ["resolve", "--in", "records.jsonl", "--out", "LINK"]),
    ("preds.jsonl", ["score", "--preds", "preds.jsonl", "--gold", "corpus.jsonl", "--records", "records.jsonl",
                     "--out", "LINK"]),
], ids=["stats", "upsample", "resolve", "score"])
def test_refuses_an_output_hard_linked_to_an_input(capsys, tmp_path, repo_root, linked, argv):
    aug = tmp_path / "aug"
    code, _, _ = _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
                      "--grammar", str(repo_root / GRAMMAR), "--out", str(aug))
    assert code == 0
    code, _, _ = _run(capsys, "resolve", "--in", str(aug / "records.jsonl"), "--out", str(aug / "preds.jsonl"))
    assert code == 0
    link = tmp_path / "link.jsonl"
    os.link(aug / linked, link)
    before = {path.name: _digest(path) for path in aug.iterdir()}
    code, _, err = _run(capsys, *(str(link) if t == "LINK" else str(aug / t) if t.endswith(".jsonl") else t
                                  for t in argv))
    assert code == 1
    assert err.splitlines()[-1].startswith("error:") and "overwrite" in err
    assert {path.name: _digest(path) for path in aug.iterdir()} == before


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
# The same at corpus scale: see TestAugment.test_outputs_at_corpus_scale_are_pinned.
_AUGMENT_X200_PINS = {
    "aug/corpus.jsonl": "7852925e3b4f4b16d0c442bcd02e0b83d47724354022cc503f431b94b857b423",
    "aug/records.jsonl": "3905daf403387a9a275aa6ac4155627e0bc5f07da928e5808e0df66abe6ebdf5",
    "aug/stats.json": "4f5a8e90dc3861ca2409f2a7a0d27495da980f4f652318ce90b2df3c6623ddde",
    "preds.jsonl": "979a76bff621aad1ebb29c93a717df65e3038cf31e138fadebbb978d35fdafe7",
    "score.json": "e111fc1c6f5c391daa966a019f4ec370cafbd18e59e3f0c69c663ae3d258a0bb",
    "stats.json": "ed141a73deb642a8c6491263f55f1979331f1e36ec7f41e55fdd9ad9cc68e132",
}

# sha256 of the toy corpus as the schema-guided test writer writes it, pinned
# for each format (the two share one envelope, so the bytes are equal) while
# the writer was still part of the package, and of the toy corpus's stats
# report, taken while dialogs were still decoded into a class.
_TOY_PINS = {
    "sgd": "4aed65e96a7d93e25722b869c82a81d54ac9164cfa2f74151f43741da39f5b74",
    "multiwoz22": "4aed65e96a7d93e25722b869c82a81d54ac9164cfa2f74151f43741da39f5b74",
    "stats": "eedf652ed7496a9907e0fb19c8a4350fc3c2b6e78a8ec03d140d46f25ad50f15",
}


@pytest.mark.parametrize("format", ["sgd", "multiwoz22"])
def test_toy_corpus_written_as_schema_guided_is_pinned(tmp_path, repo_root, format):
    path = tmp_path / "toy.json"
    write_schema_guided(load_corpus(str(repo_root / TOY)), str(path))
    assert _digest(path) == _TOY_PINS[format]
    assert len(load_corpus(str(path), format=format).dialogs) == 50


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

    def test_outputs_at_corpus_scale_are_pinned(self, capsys, tmp_path, repo_root):
        """Toy x200 (10,000 dialogs, copy ``c`` of dialog ``d`` named
        ``d~s0c<c:03d>``), augmented with mixed methods at seed 0, resolved,
        scored and summarized: the bytes of each output, pinned before
        corpus reading kept rows that are already in table form."""
        header, *dialogs = map(json.loads, (repo_root / TOY).read_text(encoding="utf-8").splitlines())
        corpus = tmp_path / "toy_x200.jsonl"
        with corpus.open("w", encoding="utf-8") as handle:
            for row in [header] + [dict(d, id=f"{d['id']}~s0c{c:03d}") for c in range(200) for d in dialogs]:
                handle.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
        out = tmp_path / "aug"
        steps = [
            ("augment", "--in", str(corpus), "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
             "--out", str(out), "--seed", "0", "--mix-methods"),
            ("resolve", "--in", str(out / "records.jsonl"), "--kind", "records",
             "--out", str(tmp_path / "preds.jsonl")),
            ("score", "--preds", str(tmp_path / "preds.jsonl"), "--gold", str(out / "corpus.jsonl"),
             "--records", str(out / "records.jsonl"), "--out", str(tmp_path / "score.json")),
            ("stats", "--in", str(corpus), "--out", str(tmp_path / "stats.json")),
        ]
        for argv in steps:
            assert _run(capsys, *argv)[0] == 0, argv[0]
        digests = {name: _digest(tmp_path / name) for name in _AUGMENT_X200_PINS}
        assert digests == _AUGMENT_X200_PINS

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
        write_schema_guided(load_corpus(str(repo_root / TOY)), str(sgd))
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

    def test_output_is_pinned(self, capsys, tmp_path, repo_root):
        out = tmp_path / "stats.json"
        assert _run(capsys, "stats", "--in", str(repo_root / TOY), "--out", str(out))[0] == 0
        assert _digest(out) == _TOY_PINS["stats"]

    def test_refuses_to_overwrite_a_file_of_a_schema_guided_directory(self, capsys, tmp_path, repo_root):
        dialogs = tmp_path / "sgd" / "dialogues_001.json"
        dialogs.parent.mkdir()
        write_schema_guided(load_corpus(str(repo_root / TOY)), str(dialogs))
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
        ids = [d["id"] for d in load_corpus(str(twice)).dialogs]
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

    @pytest.mark.parametrize("good, bad", [(_example(2), _example(6)), (_record(2), _record(6, turn_index=3))],
                             ids=["examples", "records"])
    def test_a_bad_candidate_count_names_its_file_line(self, capsys, tmp_path, good, bad):
        # Line 2 is blank, so the bad row is the second row but the third line.
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text(good + "\n\n" + bad + "\n", encoding="utf-8")
        error = f"error: {spaced}: line 3: resolve expects between 1 and 5 candidates, got 6\n"
        assert _run(capsys, "resolve", "--in", str(spaced), "--out", str(tmp_path / "p.jsonl")) == (1, "", error)

    def test_skipped_records_are_not_resolved(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(_record(7, "not_enough_entities", turn_index=3) + "\n" + _record(2) + "\n",
                           encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        code, _, err = _run(capsys, "resolve", "--in", str(records), "--out", str(preds))
        assert code == 0, err
        assert [json.loads(line) for line in preds.read_text().splitlines()] == [
            {"dialog_id": "d1", "turn_index": 1, "entities": ["n0"]}]

    def test_blank_lines_leave_the_example_keys_alone(self, capsys, tmp_path, synth_dir):
        # A key is the index of its example among the non-blank rows, in both resolve and score.
        lines = (synth_dir / "test.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + lines[0] + "  \n\n" + "".join(lines[1:]) + "\n", encoding="utf-8")
        outputs = []
        for examples in (synth_dir / "test.jsonl", spaced):
            preds = tmp_path / f"{examples.stem}-preds.jsonl"
            assert _run(capsys, "resolve", "--in", str(examples), "--out", str(preds))[0] == 0
            code, out, _ = _run(capsys, "score", "--preds", str(preds), "--gold", str(examples))
            assert code == 0
            outputs.append((preds.read_bytes(), out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1][0].splitlines()[1])["dialog_id"] == "synth-000001"

    def test_repeated_record_key_is_refused_with_its_line(self, capsys, tmp_path, repo_root):
        augmented = tmp_path / "aug"
        _run(capsys, "augment", "--in", str(repo_root / TOY), "--db", str(repo_root / DB),
             "--grammar", str(repo_root / GRAMMAR), "--out", str(augmented), "--seed", "0")
        lines = (augmented / "records.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        records = tmp_path / "records.jsonl"
        records.write_text("".join(lines + lines[2:3]), encoding="utf-8")
        key = tuple(json.loads(lines[2])[name] for name in ("dialog_id", "turn_index"))
        error = f"error: {records}: line {len(lines) + 1}: duplicate record key {key}\n"
        preds = tmp_path / "preds.jsonl"
        assert _run(capsys, "resolve", "--in", str(records), "--out", str(preds)) == (1, "", error)
        assert not preds.exists()
        assert _run(capsys, "resolve", "--in", str(augmented / "records.jsonl"), "--out", str(preds))[0] == 0
        assert _run(capsys, "score", "--preds", str(preds), "--gold", str(augmented / "corpus.jsonl"),
                    "--records", str(records)) == (1, "", error)

    def test_repeated_prediction_key_is_refused_with_its_line(self, capsys, tmp_path, synth_dir):
        gold = synth_dir / "test.jsonl"
        preds = tmp_path / "preds.jsonl"
        assert _run(capsys, "resolve", "--in", str(gold), "--out", str(preds))[0] == 0
        lines = preds.read_text(encoding="utf-8").splitlines(keepends=True)
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("".join(lines[:3] + ["\n"] + lines[1:2] + lines[3:]), encoding="utf-8")
        key = tuple(json.loads(lines[1])[name] for name in ("dialog_id", "turn_index"))
        error = f"error: {repeated}: line 5: duplicate prediction key {key}\n"
        assert _run(capsys, "score", "--preds", str(repeated), "--gold", str(gold)) == (1, "", error)

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


class TestProcess:
    """Each subcommand runs as a short process: a lean import and no cyclic GC."""

    def test_import_leaves_out_dataclasses_inspect_and_hashlib(self, repo_root):
        probe = "import sys, disambig.cli; print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        assert done.stdout.strip() == "[]"
        # hashlib, imported on first use, still gives the seeds every pin was made with.
        assert derive_seed("x", 1) == 6866867746733880335

    def test_importing_one_module_leaves_the_rest_unloaded(self, repo_root):
        # The package resolves its public names on first use.
        probe = "\n".join([
            "import json, sys",
            "import disambig.resolver",
            "unloaded = {'disambig.synthesizer', 'disambig.grammar', 'disambig.augmenter'} - set(sys.modules)",
            "import disambig",
            "star = {}",
            "exec('from disambig import *', star)",
            "from disambig import grammar",
            "same = [getattr(sys.modules[star[name].__module__], name) is star[name] is getattr(disambig, name)",
            "        and star[name].__module__.startswith('disambig.') for name in disambig.__all__]",
            "print(json.dumps([sorted(unloaded), sorted(set(star) - {'__builtins__'}), all(same),",
            "                  grammar is sys.modules['disambig.grammar'], set(disambig.__all__) <= set(dir(disambig))]))",
        ])
        env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
                              check=True, timeout=60)
        unloaded, star, same, grammar, listed = json.loads(done.stdout)
        assert unloaded == ["disambig.augmenter", "disambig.grammar", "disambig.synthesizer"]
        assert star == sorted(disambig.__all__) and len(star) == 18
        assert same and grammar and listed

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, exit_code", [
        (["grammar-count", GRAMMAR, "--start", "USER_ANSWER"], 0),
        (["grammar-count", GRAMMAR, "--start", "NO_SUCH_RULE"], 1),
        (["grammar-count", GRAMMAR], 1),
        (["grammar-count", "no-such-grammar.cfg", "--start", "USER_ANSWER"], 2),
    ], ids=["ok", "error", "usage", "io-error"])
    def test_run_turns_gc_off_and_restores_it(self, capsys, monkeypatch, repo_root, enabled, argv, exit_code):
        monkeypatch.chdir(repo_root)
        command = cli._COMMANDS["grammar-count"]
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "grammar-count", lambda args: seen.append(gc.isenabled()) or command(args))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = _run(capsys, *argv)[0]
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == exit_code
        assert after is enabled
        assert not any(seen)

    def test_synth_leaves_no_cycles_per_row(self, capsys, tmp_path, repo_root):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            cyclic = []
            for rows in (50, 500):
                code, _, _ = _run(capsys, "synth", "--db", str(repo_root / DB), "--grammar", str(repo_root / GRAMMAR),
                                  "--total", f"0,0,{rows}", "--splits", "test", "--out", str(tmp_path / str(rows)))
                assert code == 0
                cyclic.append(gc.collect())
        finally:
            if was_enabled:
                gc.enable()
        assert cyclic[0] == cyclic[1]
