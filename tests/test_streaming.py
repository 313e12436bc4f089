"""Streamed reading and staged writing.

``augment``, ``stats`` and ``score`` read a native corpus one dialog at a
time, and every output is written through one staged writer.  These tests
pin what that must not change: a write that fails midway leaves no output
behind; a linked, piped or not yet made output path keeps its meaning; the
streamed score report is byte-equal to the whole-corpus oracle; and peak
memory does not grow with the corpus as the corpus itself does.  A bad row
late in an input and a write past a file-size limit, each through the whole
command, are cases of ``test_cli_contract.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from disambig import cli
from disambig.augmenter import AUGMENT_METHODS, augment_corpus, read_records, write_records
from disambig.corpus import Corpus, load_corpus, read_corpus, write_corpus
from disambig.errors import DisambigError, SchemaMismatch
from disambig.jsonl import numbered_rows, staged_outputs, write_jsonl
from disambig.metrics import gold_states, read_predictions, write_predictions

from .oracles import slow_score
from .schema_guided import write_schema_guided
from .test_cli_contract import _tree

DB = "data/database.json"
GRAMMAR = "grammars/disambiguation.cfg"
TOY = "data/toy_corpus.jsonl"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run([str(part) for part in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("streaming")


# --- blank lines ------------------------------------------------------------------

_LINE_PARTS = [b" ", b"\t", b"\r", b"\r\n", b"\n", b"\x0b", b"\x0c", b"\x1c", b"\xa0", b"\x85", b"x", b"{}"]


@given(st.binary(min_size=1) | st.lists(st.sampled_from(_LINE_PARTS), min_size=1, max_size=5).map(b"".join))
def test_a_line_is_blank_when_strip_empties_it(line):
    assert (not line.isspace()) == bool(line.strip())


@given(st.lists(st.binary(max_size=4) | st.sampled_from(_LINE_PARTS), max_size=12).map(b"".join))
def test_numbered_rows_keep_the_lines_that_strip_keeps(scratch, content):
    with tempfile.NamedTemporaryFile(dir=scratch, delete=False) as handle:
        handle.write(content)
    expected = [(line_no, line) for line_no, line in enumerate(io.BytesIO(content), start=1) if line.strip()]
    assert list(numbered_rows(handle.name)) == expected
    Path(handle.name).unlink()


# --- staged outputs ---------------------------------------------------------------


def test_staged_outputs_appear_together(tmp_path):
    paths = [tmp_path / "new" / "deeper" / "a.jsonl", tmp_path / "new" / "b.json"]
    with staged_outputs(*paths) as (a, b):
        a.write("1\n")
        assert not paths[0].exists()
        b.write("2\n")
    assert [p.read_text() for p in paths] == ["1\n", "2\n"]
    assert _tree(tmp_path).keys() == {"new/deeper/a.jsonl", "new/b.json"}


@pytest.mark.parametrize("rows", [0, 1, 5])
@pytest.mark.parametrize("earlier", [False, True])
def test_a_failed_write_leaves_no_output(tmp_path, rows, earlier):
    out = tmp_path / "out" / "sub"
    if earlier:
        out.mkdir(parents=True)
        (out / "a.jsonl").write_text("old a\n")
    before = _tree(tmp_path)
    with pytest.raises(OSError, match="disk full"):
        with staged_outputs(out / "a.jsonl", out / "b.jsonl") as (a, b):
            for row in range(rows):
                a.write(f"{row}\n")
                b.write(f"{row}\n")
            raise OSError("disk full")
    assert _tree(tmp_path) == before
    assert (tmp_path / "out").exists() == earlier  # a directory made for the outputs is removed


def test_a_fifo_output_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_jsonl(str(fifo), [{"a": 1}, {"b": "é"}])
    reader.join(timeout=10)
    assert received == ['{"a": 1}\n{"b": "é"}\n'.encode()]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)  # not renamed over
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.parametrize("earlier", [True, False], ids=["target", "dangling"])
@pytest.mark.parametrize("link", ["data/preds.jsonl", "ABSOLUTE"])
def test_a_linked_output_rewrites_its_target(tmp_path, link, earlier):
    target = tmp_path / "data" / "preds.jsonl"
    target.parent.mkdir()
    if earlier:
        target.write_text("old\n")
    out = tmp_path / "out.jsonl"
    out.symlink_to(target if link == "ABSOLUTE" else link)
    write_jsonl(str(out), [{"a": 1}])
    assert out.is_symlink() and os.readlink(out) == str(target if link == "ABSOLUTE" else link)
    assert target.read_text() == '{"a": 1}\n'
    assert _tree(tmp_path).keys() == {"data/preds.jsonl", "out.jsonl"}


def test_a_missing_output_directory_is_made(tmp_path, repo_root):
    out = tmp_path / "made" / "deeper" / "stats.json"
    assert _run(["stats", "--in", repo_root / TOY, "--out", out]) == (0, "")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "made", "made/deeper", "made/deeper/stats.json"]


# --- the streaming reader ---------------------------------------------------------


def test_read_corpus_reads_a_dialog_only_when_it_is_taken(tmp_path, repo_root):
    path = tmp_path / "late.jsonl"
    path.write_text((repo_root / TOY).read_text() + '{"id": "late"}\n')
    corpus = read_corpus(str(path))  # only the meta header is read here
    assert (corpus.split_name, corpus.source_format) == ("test", "native")
    dialogs = corpus.dialogs
    assert [next(dialogs)["id"] for _ in range(50)][0] == "hotel_accept_2nd"
    with pytest.raises(SchemaMismatch, match=r"line 52: dialog record missing key 'services'"):
        next(dialogs)


def test_schema_guided_directories_are_read_file_by_file(tmp_path, repo_root):
    write_schema_guided(load_corpus(str(repo_root / TOY)), str(tmp_path / "dialogues_001.json"))
    (tmp_path / "dialogues_002.json").write_text("[5]")
    dialogs = read_corpus(str(tmp_path), format="sgd").dialogs
    assert len([next(dialogs) for _ in range(50)]) == 50
    with pytest.raises(SchemaMismatch, match=r"dialogues_002.json: dialog at index 0: expected an object, got 5"):
        next(dialogs)


# --- the streamed score against the whole-corpus oracle ---------------------------


@st.composite
def _scoring_files(draw, toy: Corpus, db, grammar):
    """An augmented toy sub-corpus, its records and predictions for it that
    are right, wrong or absent turn by turn, with or without states."""
    picks = draw(st.lists(st.integers(0, len(toy.dialogs) - 1), min_size=1, max_size=8, unique=True))
    methods = AUGMENT_METHODS if draw(st.booleans()) else AUGMENT_METHODS[:1]
    gold, records, _ = augment_corpus(toy._replace(dialogs=[toy.dialogs[i] for i in picks]), db, grammar,
                                      draw(st.integers(0, 50)), methods=methods)
    states = gold_states(gold) if draw(st.booleans()) else {}
    rows = []
    for dialog in gold.dialogs:
        for index, turn in enumerate(dialog["turns"]):
            key = (dialog["id"], index)
            marker = turn["extras"].get("disambig")
            if not marker and key not in states:
                continue
            verdict = draw(st.sampled_from(["right", "right", "right", "wrong", "absent"]))
            if verdict == "absent":
                continue
            row = {"dialog_id": key[0], "turn_index": index,
                   "entities": list(marker["target_names"]) if marker and verdict == "right" else ["nowhere inn"]}
            if key in states:
                state = {slot: sorted(values) for slot, values in states[key].items()}
                row["state"] = state if verdict == "right" else {**state, "hotel-area": ["nowhere"]}
            rows.append(row)
    return gold, records, rows, draw(st.booleans())


def _outcome(function, *args):
    try:
        return 0, function(*args)
    except DisambigError as exc:
        return 1, f"error: {exc}\n"


@given(data=st.data())
def test_streamed_score_is_byte_equal_to_the_whole_corpus_oracle(scratch, toy_corpus, shipped_db, shipped_grammar,
                                                                  data):
    gold, records, rows, with_records = data.draw(_scoring_files(toy_corpus, shipped_db, shipped_grammar))
    work = Path(tempfile.mkdtemp(dir=scratch))
    write_corpus(gold, str(work / "gold.jsonl"))
    write_records(records, str(work / "records.jsonl"))
    write_predictions(rows, str(work / "preds.jsonl"))
    argv = ["score", "--preds", work / "preds.jsonl", "--gold", work / "gold.jsonl", "--out", work / "score.json"]
    if with_records:
        argv[5:5] = ["--records", work / "records.jsonl"]

    def oracle() -> str:
        report = slow_score(read_predictions(str(work / "preds.jsonl")), load_corpus(str(work / "gold.jsonl")),
                            read_records(str(work / "records.jsonl")) if with_records else None)
        return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n"

    expected = _outcome(oracle)
    code, err = _run(argv)
    assert (code, err if code else (work / "score.json").read_text(encoding="utf-8")) == expected


# --- memory -----------------------------------------------------------------------


def _toy_copies(repo_root: Path, copies: int, path: Path) -> None:
    """The toy corpus ``copies`` times over, each copy's ids made unique."""
    lines = (repo_root / TOY).read_text(encoding="utf-8").splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(lines[0] + "\n")  # the meta header
        for copy in range(copies):
            for line in lines[1:]:
                handle.write(json.dumps({**json.loads(line), "id": f"{json.loads(line)['id']}~c{copy}"}) + "\n")


def _peak(argv: list) -> int:
    """The peak of memory allocated while ``cli.run(argv)`` runs, in bytes."""
    tracemalloc.start()
    try:
        assert _run(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_grows_by_keys_not_by_dialogs(tmp_path, repo_root):
    """From toy x10 to toy x40, the peaks of ``augment`` and of ``score
    --records`` grow by less than a quarter of what their input corpus
    grows by on disk.  What still grows is the set of dialog ids the
    duplicate check keeps and, for ``score``, the predictions, the record
    keys and the gold index; holding the dialogs themselves costs about five
    times their bytes on disk."""
    peaks = {}
    for copies in (10, 40):
        work = tmp_path / f"x{copies}"
        work.mkdir()
        _toy_copies(repo_root, copies, work / "in.jsonl")
        augment = ["augment", "--in", work / "in.jsonl", "--db", repo_root / DB, "--grammar", repo_root / GRAMMAR,
                   "--out", work / "aug"]
        _peak(augment)  # fills the process-wide caches first
        augment_peak = _peak(augment[:-1] + [work / "again"])
        assert _run(["resolve", "--in", work / "aug" / "records.jsonl", "--kind", "records",
                     "--out", work / "preds.jsonl"])[0] == 0
        score_peak = _peak(["score", "--preds", work / "preds.jsonl", "--gold", work / "aug" / "corpus.jsonl",
                            "--records", work / "aug" / "records.jsonl", "--out", work / "score.json"])
        peaks[copies] = (augment_peak, (work / "in.jsonl").stat().st_size,
                         score_peak, (work / "aug" / "corpus.jsonl").stat().st_size)
    (augment10, in10, score10, gold10), (augment40, in40, score40, gold40) = peaks[10], peaks[40]
    assert augment40 - augment10 < (in40 - in10) / 4
    assert score40 - score10 < (gold40 - gold10) / 4
