"""The command-line contract, checked where a user meets it.

Every test here runs the CLI through one runner, the ``disambig`` fixture.
By default a table case runs in this process through ``cli.run``, and a
process test runs ``python -m disambig`` from the checkout's ``src/``.  With
``--installed-cli`` every case and every process test runs the ``disambig``
console script on ``PATH`` instead, from a directory outside the checkout
and with no ``PYTHONPATH``, so that only the installed package can be
imported::

    pip install ".[test]"
    cd "$(mktemp -d)" && python -m pytest -q /path/to/checkout/tests/test_cli_contract.py --installed-cli

The contract, for any input file and any flag value: exit 0, 1 or 2; a
failure prints one ``error:`` or ``i/o error:`` line and no traceback,
changes no input, and leaves neither an output nor a temporary file behind.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shlex
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from disambig import cli

GRAMMAR = "grammars/disambiguation.cfg"
DB = "data/database.json"
TOY = "data/toy_corpus.jsonl"


class Runner:
    """Runs one command line of the CLI and returns its exit code, stdout
    and stderr as a ``subprocess.CompletedProcess``.

    A table case (``process=False``) runs in this process through
    ``cli.run``; a process test runs ``python -m disambig`` with the
    checkout's ``src/`` as ``PYTHONPATH``.  When ``installed``, both run the
    ``disambig`` script on ``PATH``, from ``cwd``, outside the checkout.
    """

    def __init__(self, installed: bool, cwd: Path, repo_root: Path):
        self.installed = installed
        self.cwd = cwd
        # Unbuffered output would hide the block-buffered flush a closed pipe fails.
        self.env = {key: value for key, value in os.environ.items() if key not in ("PYTHONPATH", "PYTHONUNBUFFERED")}
        if not installed:
            self.env["PYTHONPATH"] = str(repo_root / "src")
        self.command = ["disambig"] if installed else [sys.executable, "-m", "disambig"]

    def __call__(self, *argv: object, process: bool = False, input: str | None = None, stdout=subprocess.PIPE,
                 file_size_limit: int | None = None) -> subprocess.CompletedProcess:
        argv = [str(arg) for arg in argv]
        if not (process or self.installed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())
        env, limit = self.env, None
        if file_size_limit is not None:
            # Set in the child only.  Python ignores SIGXFSZ, so a write past
            # the limit fails with EFBIG; no bytecode is written, so that the
            # limit meets only the command's own output.
            env = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
            limit = partial(resource.setrlimit, resource.RLIMIT_FSIZE, (file_size_limit, file_size_limit))
        return subprocess.run([*self.command, *argv], cwd=self.cwd, env=env, input=input, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120, preexec_fn=limit)


@pytest.fixture(scope="session")
def disambig(request, tmp_path_factory, repo_root) -> Runner:
    installed = request.config.getoption("installed_cli")
    return Runner(installed, tmp_path_factory.mktemp("cwd") if installed else repo_root, repo_root)


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tree(root: Path) -> dict[str, str]:
    """Every file under ``root`` by relative path, with its sha256."""
    return {str(p.relative_to(root)): _digest(p) for p in sorted(root.rglob("*")) if p.is_file()}


def _shipped(repo_root: Path, argv: list[str]) -> list[str]:
    """``argv`` with each shipped-file token made the path of that file."""
    return [str(repo_root / token) if token in (DB, GRAMMAR, TOY) else token for token in argv]


def _interpreter_of(script: str) -> str:
    """The Python a console script runs under: the one its ``#!`` line
    names, or, for a path too long for that line, the one its ``/bin/sh``
    preamble execs, as pip writes it."""
    lines = Path(script).read_text(encoding="utf-8", errors="replace").splitlines()
    assert lines[0].startswith("#!"), f"{script} is not a script"
    python = shlex.split(lines[0][2:])[0]
    return shlex.split(lines[1].removeprefix("'''exec' "))[0] if python == "/bin/sh" else python


def test_the_runner_imports_the_package_under_test(disambig, repo_root):
    """By default a CLI process imports ``disambig`` from the checkout's
    sources; with ``--installed-cli`` it must import it from elsewhere, so
    that this module cannot quietly test the sources again."""
    python = sys.executable
    if disambig.installed:
        script = shutil.which("disambig", path=disambig.env.get("PATH"))
        assert script, "no disambig console script on PATH"
        python = _interpreter_of(script)
        assert not disambig.cwd.resolve().is_relative_to(repo_root)
    done = subprocess.run([python, "-c", "import disambig; print(disambig.__file__)"], cwd=disambig.cwd,
                          env=disambig.env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    imported = Path(done.stdout.strip()).resolve()
    assert imported.is_relative_to(repo_root / "src") is not disambig.installed, imported


# --- malformed inputs and flag values ---------------------------------------------

_EXAMPLE = json.dumps({
    "system": "hotel a or b?", "user": "a", "method": "exact", "domain": "hotel", "seed": 0,
    "candidates": [{"domain": "hotel", "name": "a"}, {"domain": "hotel", "name": "b"}], "target_names": ["a"],
})


def _example(count: int) -> str:
    candidates = [{"domain": "hotel", "name": f"n{i}"} for i in range(count)]
    return json.dumps({**json.loads(_EXAMPLE), "user": "n0", "candidates": candidates, "target_names": ["n0"][:count]})


def _record(count: int, skipped_reason: str | None = None, turn_index: int = 1) -> str:
    candidates = [{"domain": "hotel", "name": f"n{i}"} for i in range(count)]
    return json.dumps({"dialog_id": "d1", "turn_index": turn_index, "original_system": "s", "new_system": "s",
                       "user_prefix": "n0", "original_user": "u", "candidates": candidates,
                       "target": {"domain": "hotel", "name": "n0"}, "skipped_reason": skipped_reason})


# Two candidates, the first named by a number where a string belongs.
_NUMBER_NAMED = [{"domain": "hotel", "name": 12345678}, {"domain": "hotel", "name": "n0"}]
# Two candidates, the first with a list where its domain string belongs.
_LIST_DOMAIN = [{"domain": ["hotel"], "name": "n1"}, {"domain": "hotel", "name": "n0"}]

_PREDICTION = {"dialog_id": "synth-000000", "turn_index": 0, "entities": ["a"]}

# A native corpus whose slot value is a string where a list belongs.
_SLOT_VALUE_NOT_A_LIST = json.dumps({"id": "d1", "services": ["hotel"], "turns": [
    {"speaker": "USER", "utterance": "hi", "frames": [{"service": "hotel", "slot_values": {"hotel-area": "north"}}]}]})


# A native dialog row without services or turns.
_SERVICE_FREE = json.dumps({"id": "d1", "services": [], "turns": []}) + "\n"

# A native dialog with a list where a service name belongs.
_SERVICE_NOT_A_STRING = json.dumps({"id": "d1", "services": [["hotel"]], "turns": []})


def _hotel_offer(name: object = "aldergate lodge", utterance: object = "that one", domain: object = "hotel") -> str:
    """A native dialog whose system turn offers two shipped hotels and whose
    user then takes the first, so ``augment`` rewrites both turns."""
    results = [{"domain": domain, "name": name}, {"domain": "hotel", "name": "birchwood innhouse"}]
    return json.dumps({"id": "d1", "services": ["hotel"], "turns": [
        {"speaker": "USER", "utterance": "a hotel please", "frames": [{"service": "hotel"}]},
        {"speaker": "SYSTEM", "utterance": "which one?", "search_results": results},
        {"speaker": "USER", "utterance": utterance,
         "frames": [{"service": "hotel", "slot_values": {"hotel-name": ["aldergate lodge"]}}]}]})


def _sgd_dialog(frame: object) -> dict:
    """A one-turn schema-guided dialog whose only frame is ``frame``."""
    return {"dialogue_id": "d1", "services": ["hotels_1"],
            "turns": [{"speaker": "USER", "utterance": "hi", "frames": [frame]}]}


# Schema-guided dialogs that only the native dialog check refuses.
_SGD_DIALOG_CHECKS = {
    "speaker-bot": [{**_sgd_dialog({"service": "hotels_1"}),
                     "turns": [{"speaker": "BOT", "utterance": "hi", "frames": []}]}],
    "service-not-a-string": [{**_sgd_dialog({"service": "hotels_1"}), "services": [5]}],
}


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
    "stats-meta-not-first": (
        {"in.jsonl": json.dumps({"id": "d1", "services": [], "turns": []}) + '\n{"meta": {}}\n'},
        ["stats", "--in", "in.jsonl"]),
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
    "synth-config-db-null": ({"config.json": '{"db": null}'}, ["synth", "--config", "config.json", "--out", "OUT"]),
    # A list reaches its flag's parser comma-joined: only the four comma-list
    # flags take one, and only of strings and numbers.
    **{f"synth-config-{name}": ({"config.json": json.dumps(config)}, ["synth", "--config", "config.json", "--out", "OUT"])
       for name, config in (("db-list-of-null", {"db": [None]}), ("db-list", {"db": [DB, "x"]}),
                            ("total-list-item-null", {"total": [1, None, 2]}))},
    "augment-config-grammar-true": (
        {"config.json": '{"grammar": true}'},
        ["augment", "--in", TOY, "--db", DB, "--config", "config.json", "--out", "OUT"]),
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
                         ("search-result-name-not-a-string", _hotel_offer(name=7)),
                         ("search-result-domain-not-a-string", _hotel_offer(domain=["hotel"])))},
    "stats-search-result-domain-not-a-string": (
        {"in.jsonl": _hotel_offer(domain=["hotel"]) + "\n"}, ["stats", "--in", "in.jsonl"]),
    "stats-dialog-service-not-a-string": ({"in.jsonl": _SERVICE_NOT_A_STRING + "\n"}, ["stats", "--in", "in.jsonl"]),
    "augment-dialog-service-not-a-string": (
        {"in.jsonl": _SERVICE_NOT_A_STRING + "\n"},
        ["augment", "--in", "in.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"]),
    **{f"resolve-examples-{name}": (
        {"in.jsonl": json.dumps({**json.loads(_EXAMPLE), **change}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--out", "OUT"])
       for name, change in (("system-not-a-string", {"system": 5}), ("user-not-a-string", {"user": 5}),
                            ("candidate-name-not-a-string", {"candidates": _NUMBER_NAMED, "target_names": ["n0"]}),
                            ("candidate-domain-not-a-string", {"candidates": _LIST_DOMAIN, "target_names": ["n0"]}))},
    **{f"resolve-records-{name}": (
        {"in.jsonl": json.dumps({**json.loads(_record(2)), **change}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"])
       for name, change in (("user-prefix-not-a-string", {"user_prefix": 5}),
                            ("dialog-id-not-a-string", {"dialog_id": 5}),
                            ("turn-index-string", {"turn_index": "3"}), ("turn-index-bool", {"turn_index": True}),
                            ("candidate-name-not-a-string", {"candidates": _NUMBER_NAMED}),
                            ("candidate-domain-not-a-string", {"candidates": _LIST_DOMAIN}),
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
                                                            "dialogue_id": ["a"]}]),
                             ("dialog-without-dialogue-id", [{"services": [], "turns": []}]),
                             ("frame-without-service", [_sgd_dialog({"state": {}})]),
                             *_SGD_DIALOG_CHECKS.items())},
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
                            ("name-field-not-a-string", {"name_fields": {"hotel": ["name"]}}),
                            ("record-without-name-field", {"tables": {"hotel": [{"area": "north"}]}}))},
    # "alder-lodge" reads as the same tokens as "alder lodge", so the resolver could not tell them apart.
    "synth-db-names-alike": (
        {"db.json": json.dumps({**_DATABASE, "tables": {"hotel": [*_DATABASE["tables"]["hotel"],
                                                                 {"name": "alder-lodge", "area": "pine"}]}})},
        ["synth", "--db", "db.json", "--grammar", GRAMMAR, "--methods", "exact", "--total", "6,0,0",
         "--splits", "train", "--out", "OUT"]),
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
    "stats-marker-null": ({"in.jsonl": _marked_gold(None) + "\n"}, ["stats", "--in", "in.jsonl"]),
    "augment-marker-not-an-object": (
        {"in.jsonl": _marked_gold(5) + "\n"},
        ["augment", "--in", "in.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"]),
    "resolve-records-skipped-reason-not-a-string": (
        {"in.jsonl": _record(2, skipped_reason=5) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"]),
    # A flag of synth is checked before any file is read: the database here
    # does not parse, so its error would come first otherwise.
    **{f"synth-{flag}-{name}": (
        {"db.json": "{"}, ["synth", "--db", "db.json", "--grammar", GRAMMAR, "--per-method", "1,1,1",
                           f"--{flag}", value, "--out", "OUT"])
       for flag, name, value in (("methods", "empty", ","), ("methods", "unknown", "exact,bogus"),
                                 ("methods", "repeated", "exact,positional,exact"),
                                 ("splits", "bogus", "test,bogus"), ("splits", "repeated", "test,test"),
                                 ("splits", "empty", ""))},
    **{f"synth-grammar-{name}": (
        {"g.cfg": source}, ["synth", "--db", DB, "--grammar", "g.cfg", "--total", "1,0,0", "--out", "OUT"])
       for name, source in (("unknown-directive", "%begin USER_ANSWER\nUSER_ANSWER -> {mention}\n"),
                            ("lowercase-left-hand-side", "user_answer -> {mention}\n"))},
    "resolve-records-repeated-key": (
        {"in.jsonl": _record(2) + "\n" + _record(2) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"]),
    "score-records-repeated-key": (
        {"preds.jsonl": json.dumps({"dialog_id": "d1", "turn_index": 0, "entities": ["a"]}) + "\n",
         "gold.jsonl": _marked_gold(_MARKER) + "\n",
         "records.jsonl": _record(2, turn_index=0) + "\n" + _record(2, turn_index=0) + "\n"},
        ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl", "--records", "records.jsonl"]),
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
    # Grammars whose answer does not name the pick or names it twice: each is
    # refused before an exchange is made.
    **{f"{command}-grammar-{name}": (
        {"g.cfg": "SYSTEM_QUESTION -> which of {option_list}?\nUSER_ANSWER -> " + answer + "\n"},
        [command, *extra, "--grammar", "g.cfg", "--out", "OUT"])
       for name, answer in (("without-mention", "that one please."), ("mention-twice", "{mention} or {mention}."))
       for command, extra in (("synth", ["--db", DB, "--total", "1,0,0"]), ("augment", ["--in", TOY, "--db", DB]))},
    # An answer that can hold a slot no answer is filled with, in the
    # alternative that the one row does not draw, so only the check finds it.
    "synth-grammar-stray-slot": (
        {"g.cfg": "SYSTEM_QUESTION -> which of {option_list}?\n"
                  "USER_ANSWER -> {mention} please. | {mention} of {option_list}.\n"},
        ["synth", "--db", DB, "--grammar", "g.cfg", "--total", "1,0,0", "--out", "OUT"]),
    "stats-repeated-dialog-id": ({"in.jsonl": _SERVICE_FREE * 2}, ["stats", "--in", "in.jsonl"]),
    "stats-sgd-repeated-dialog-id": (
        {"in.json": json.dumps([_sgd_dialog({"service": "hotels_1"})] * 2)},
        ["stats", "--format", "sgd", "--in", "in.json"]),
    "resolve-examples-without-user": (
        {"in.jsonl": json.dumps({k: v for k, v in json.loads(_EXAMPLE).items() if k != "user"}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--out", "OUT"]),
    "resolve-examples-unknown-target": (
        {"in.jsonl": json.dumps({**json.loads(_EXAMPLE), "target_names": ["no such name"]}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--out", "OUT"]),
    **{f"score-preds-{name}": (
        {"preds.jsonl": json.dumps(prediction) + "\n", "gold.jsonl": _EXAMPLE + "\n"},
        ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl"])
       for name, prediction in (("without-turn-index", {"dialog_id": "synth-000000", "entities": ["a"]}),
                                ("state-not-an-object", {**_PREDICTION, "state": ["x"]}))},
    **{f"stats-{name}": ({"in.jsonl": json.dumps(row) + "\n"}, ["stats", "--in", "in.jsonl"])
       for name, row in (("turns-not-an-array", {"id": "d1", "services": [], "turns": "ab"}),
                         ("frames-not-an-array", {"id": "d1", "services": [], "turns": [
                             {"speaker": "USER", "utterance": "hi", "frames": "abc"}]}),
                         ("slot-values-not-an-object", {"id": "d1", "services": ["hotel"], "turns": [
                             {"speaker": "USER", "utterance": "hi",
                              "frames": [{"service": "hotel", "slot_values": ["x"]}]}]}),
                         ("turn-not-an-object", {"id": "d1", "services": [], "turns": ["ab"]}),
                         ("frame-not-an-object", {"id": "d1", "services": [], "turns": [
                             {"speaker": "USER", "utterance": "hi", "frames": [5]}]}),
                         ("turn-without-speaker", {"id": "d1", "services": [], "turns": [{"utterance": "hi"}]}),
                         ("meta-source-format-not-a-string", {"meta": {"source_format": [1]}}))},
    "stats-row-not-an-object": ({"in.jsonl": "5\n"}, ["stats", "--in", "in.jsonl"]),
    "resolve-row-not-an-object": ({"in.jsonl": "5\n"}, ["resolve", "--in", "in.jsonl", "--out", "OUT"]),
    **{f"stats-sgd-{name}": ({"in.json": json.dumps([{"dialogue_id": "d1", "services": [], "turns": turns}])},
                             ["stats", "--format", "sgd", "--in", "in.json"])
       for name, turns in (("frames-not-an-array", [{"speaker": "USER", "utterance": "hi", "frames": "abc"}]),
                           ("turns-not-an-array", "ab"))},
    # A dialog named only by the "dialog_id" key is named by it in errors too.
    "stats-sgd-turn-not-an-object-under-dialog-id": (
        {"in.json": json.dumps([{"dialog_id": "d1", "services": [], "turns": [5]}])},
        ["stats", "--format", "sgd", "--in", "in.json"]),
    **{f"resolve-examples-{name}": (
        {"in.jsonl": json.dumps({**json.loads(_EXAMPLE), **change}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--out", "OUT"])
       for name, change in (("target-name-not-a-string", {"target_names": [5]}),
                            ("candidates-not-an-array", {"candidates": "abc"}),
                            ("candidate-not-an-object", {"candidates": [7, {"domain": "hotel", "name": "a"}]}),
                            ("method-unknown", {"method": "nope"}))},
    "resolve-records-candidates-not-an-array": (
        {"in.jsonl": json.dumps({**json.loads(_record(2)), "candidates": "xx"}) + "\n"},
        ["resolve", "--in", "in.jsonl", "--kind", "records", "--out", "OUT"]),
    "score-preds-row-not-an-object": (
        {"preds.jsonl": "[5]\n", "gold.jsonl": _EXAMPLE + "\n"},
        ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl"]),
    # Prediction files that parse, but leave a gold turn unpredicted or
    # predict a turn that gold does not have.
    **{f"score-preds-{name}": (
        {"preds.jsonl": rows, "gold.jsonl": _EXAMPLE + "\n"}, ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl"])
       for name, rows in (("missing-gold-turn", ""),
                          ("key-not-in-gold", json.dumps({**_PREDICTION, "dialog_id": "ghost"}) + "\n"))},
}

# The whole error line of some cases, after the path of the file it names.
_MALFORMED_MESSAGES = {
    "stats-meta-not-first": "in.jsonl: line 2: only the first row may be a meta header",
    "stats-repeated-dialog-id": "in.jsonl: line 2: duplicate dialog id 'd1'",
    "stats-sgd-repeated-dialog-id": "in.json: dialog at index 1: duplicate dialog id 'd1'",
    "stats-sgd-dialog-without-dialogue-id": "in.json: dialog at index 0: dialog without a dialogue_id",
    "stats-sgd-dialogue-id-not-a-string": "in.json: dialog at index 0: dialogue_id: expected a string, got ['a']",
    "stats-sgd-frame-without-service": "in.json: dialog at index 0: frame without service in dialog 'd1'",
    "resolve-examples-without-user": "in.jsonl: line 1: missing key 'user'",
    "resolve-examples-unknown-target": "in.jsonl: line 1: target name 'no such name' is not one of the candidates",
    "score-preds-without-turn-index": "preds.jsonl: line 1: missing key 'turn_index'",
    "score-preds-state-not-an-object": "preds.jsonl: line 1: state: expected an object, got ['x']",
    "stats-turns-not-an-array": "in.jsonl: line 1: dialog 'd1' turns: expected an array, got 'ab'",
    "stats-frames-not-an-array": "in.jsonl: line 1: dialog 'd1' turn 0: frames: expected an array, got 'abc'",
    "stats-slot-values-not-an-object": "in.jsonl: line 1: dialog 'd1' turn 0: slot_values: expected an object, got ['x']",
    "stats-turn-not-an-object": "in.jsonl: line 1: dialog 'd1' turn 0: expected an object, got 'ab'",
    "stats-frame-not-an-object":
        "in.jsonl: line 1: dialog 'd1' turn 0: frames item: expected an object, got 5",
    "stats-turn-without-speaker": "in.jsonl: line 1: dialog 'd1' turn 0: missing key 'speaker'",
    "stats-row-not-an-object": "in.jsonl: line 1: expected an object, got 5",
    "resolve-row-not-an-object": "in.jsonl: line 1: expected an object, got 5",
    "stats-meta-not-object": "in.jsonl: line 1: meta: expected an object, got 5",
    "stats-meta-source-format-not-a-string": "in.jsonl: line 1: meta source_format: expected a string, got [1]",
    "stats-sgd-frames-not-an-array":
        "in.json: dialog at index 0: dialog 'd1' turn 0: frames: expected an array, got 'abc'",
    "stats-sgd-turns-not-an-array": "in.json: dialog at index 0: dialog 'd1' turns: expected an array, got 'ab'",
    "resolve-examples-target-name-not-a-string": "in.jsonl: line 1: target name: expected a string, got 5",
    "resolve-examples-candidates-not-an-array": "in.jsonl: line 1: candidates: expected an array, got 'abc'",
    "resolve-examples-candidate-not-an-object": "in.jsonl: line 1: candidates item: expected an object, got 7",
    "resolve-examples-method-unknown": "in.jsonl: line 1: method: expected one of 'exact', 'positional', 'partial', "
                                       "'typo', 'multiple', 'attribute', got 'nope'",
    "resolve-records-candidates-not-an-array": "in.jsonl: line 1: candidates: expected an array, got 'xx'",
    "score-preds-row-not-an-object": "preds.jsonl: line 1: expected an object, got [5]",
    "stats-marker-null": "in.jsonl: line 1: dialog 'd1' turn 0: disambig marker: expected an object, got None",
    "stats-sgd-turn-not-an-object-under-dialog-id":
        "in.json: dialog at index 0: dialog 'd1' turn 0: expected an object, got 5",
    # A grammar error names the grammar file first, whether the file does not
    # parse or its rules break the slot contract.
    "synth-grammar-unknown-directive": "g.cfg: line 1: unknown directive '%begin USER_ANSWER'",
    "synth-grammar-lowercase-left-hand-side":
        "g.cfg: line 1: left-hand side 'user_answer' is not an UPPERCASE nonterminal",
    **{f"{command}-grammar-{name}": "g.cfg: " + message for command in ("synth", "augment")
       for name, message in (
           ("without-user-answer", "unknown start symbol or rule name 'USER_ANSWER'"),
           ("without-mention", "rule 'USER_ANSWER': slot {mention} must occur exactly once in every derivation, "
                               "but occurs 0 times"),
           ("mention-twice", "rule 'USER_ANSWER': slot {mention} must occur exactly once in every derivation, "
                             "but occurs 2 times"))},
    "synth-config-db-null": "config.json: key 'db': expected a string, a number or a list, got None",
    "augment-config-grammar-true": "config.json: key 'grammar': expected a string, a number or a list, got True",
    "synth-config-db-list-of-null": "config.json: key 'db': expected a string or a number, got [None]",
    "synth-config-db-list": "config.json: key 'db': expected a string or a number, got ['data/database.json', 'x']",
    "synth-config-total-list-item-null":
        "config.json: key 'total': expected a list of strings and numbers, got [1, None, 2]",
    "synth-grammar-stray-slot": "g.cfg: rule 'USER_ANSWER': slot {option_list} can occur, but only {mention} can be "
                                "filled there",
}

# The whole error line of the cases that name no file: a flag's value, or a
# turn that the predictions and gold do not share.
_MALFORMED_FLAG_MESSAGES = {
    "synth-methods-empty": "no addressing method in ','",
    "synth-methods-unknown": "unknown addressing method in 'exact,bogus'",
    "synth-methods-repeated": "method 'exact' given twice",
    "synth-splits-bogus": "unknown split 'bogus'",
    "synth-splits-repeated": "split 'test' given twice",
    "synth-splits-empty": "no split in ''",
    "score-preds-missing-gold-turn": "no prediction row for (dialog_id='synth-000000', turn_index=0)",
    "score-preds-key-not-in-gold": "prediction key (dialog_id='ghost', turn_index=0) not in gold corpus",
}


@pytest.mark.parametrize("name", _MALFORMED_INPUTS)
def test_malformed_input_is_a_validation_error(disambig, tmp_path, repo_root, name):
    files, argv = _MALFORMED_INPUTS[name]
    paths = {file: tmp_path / file for file in files}
    for file, content in files.items():
        paths[file].write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    paths.update({shipped: repo_root / shipped for shipped in (DB, GRAMMAR, TOY)})
    before = {file: _digest(path) for file, path in paths.items()}
    done = disambig(*(tmp_path / "out" if token == "OUT" else paths.get(token, token) for token in argv))
    err = done.stderr
    assert done.returncode == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    if name in _MALFORMED_MESSAGES:
        file, _, message = _MALFORMED_MESSAGES[name].partition(": ")
        assert err == f"error: {paths[file]}: {message}\n"
    if name in _MALFORMED_FLAG_MESSAGES:
        assert err == f"error: {_MALFORMED_FLAG_MESSAGES[name]}\n"
    assert {file: _digest(path) for file, path in paths.items()} == before
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("name", _SGD_DIALOG_CHECKS)
def test_schema_guided_dialog_errors_name_the_file_and_index(disambig, tmp_path, name):
    files, argv = _MALFORMED_INPUTS[f"stats-sgd-{name}"]
    path = tmp_path / "in.json"
    path.write_text(files["in.json"], encoding="utf-8")
    done = disambig(*(path if token == "in.json" else token for token in argv))
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {path}: dialog at index 0: dialog 'd1' ")


@pytest.mark.parametrize("command", ["synth", "augment"])
def test_a_grammar_whose_answers_name_no_pick_is_refused(disambig, tmp_path, repo_root, command):
    """With every {mention} of the shipped grammar replaced, replies would
    name no target yet carry a gold label; the grammar is refused first."""
    grammar = tmp_path / "g.cfg"
    grammar.write_text((repo_root / GRAMMAR).read_text(encoding="utf-8").replace("{mention}", "it"), encoding="utf-8")
    extra = ["--total", "0,0,12", "--splits", "test"] if command == "synth" else ["--in", repo_root / TOY]
    done = disambig(command, "--db", repo_root / DB, "--grammar", grammar, *extra, "--out", tmp_path / "out")
    assert (done.returncode, done.stderr) == (1, f"error: {grammar}: rule 'USER_ANSWER': slot {{mention}} must occur "
                                                 "exactly once in every derivation, but occurs 0 times\n")
    assert not (tmp_path / "out").exists()


# --- outputs that must come out right ------------------------------------------


def test_grammar_count_of_the_shipped_answers(disambig, repo_root):
    done = disambig("grammar-count", repo_root / GRAMMAR, "--start", "USER_ANSWER")
    assert (done.returncode, done.stdout, done.stderr) == (0, "59724\n", "")


def _loose(row: dict) -> dict:
    """A native corpus row out of table form: every key left at its default
    value is left out, and each turn gains a key the turn table lacks."""
    def drop_defaults(item: dict, keys: tuple[str, ...]) -> None:
        for key in keys:
            if item.get(key, None) in ({}, []):
                del item[key]

    if "meta" not in row:
        drop_defaults(row, ("extras",))
        for turn in row["turns"]:
            for frame in turn["frames"]:
                drop_defaults(frame, ("extras", "requested_slots", "slot_values"))
            for entity in turn.get("search_results", []):
                drop_defaults(entity, ("attributes",))
            drop_defaults(turn, ("extras", "frames"))
            turn["note"] = "not a key of the turn table"
    return row


def test_a_corpus_not_in_table_form_augments_to_the_same_bytes(disambig, tmp_path, repo_root):
    """Rows already in table form are kept as decoded and the rest are
    rebuilt, to the same outputs."""
    loose = tmp_path / "loose.jsonl"
    rows = (repo_root / TOY).read_text(encoding="utf-8").splitlines()
    loose.write_text("".join(json.dumps(_loose(json.loads(row))) + "\n" for row in rows), encoding="utf-8")
    for corpus, out in ((repo_root / TOY, "table"), (loose, "loose")):
        done = disambig("augment", "--in", corpus, "--db", repo_root / DB, "--grammar", repo_root / GRAMMAR,
                        "--mix-methods", "--out", tmp_path / out)
        assert done.returncode == 0, done.stderr
    assert _tree(tmp_path / "table") == _tree(tmp_path / "loose")
    assert sorted(_tree(tmp_path / "loose")) == ["corpus.jsonl", "records.jsonl", "stats.json"]


def test_default_test_split_through_the_cli_is_pinned(disambig, tmp_path, repo_root):
    """``synth`` of the default 10k test split and ``resolve`` of it, each
    run as its own process, write the files whose sha256 the resolver
    baseline tracks."""
    baseline = json.loads((repo_root / "baselines" / "resolver_baseline.json").read_text(encoding="utf-8"))
    examples, preds = tmp_path / "o" / "test.jsonl", tmp_path / "preds.jsonl"
    for argv in (["synth", "--db", DB, "--grammar", GRAMMAR, "--total", "0,0,10000", "--splits", "test",
                  "--out", str(examples.parent)],
                 ["resolve", "--in", str(examples), "--out", str(preds)]):
        done = disambig(*_shipped(repo_root, argv), process=True)
        assert done.returncode == 0, done.stderr
    assert [_digest(examples), _digest(preds)] == [baseline["examples_sha256"], baseline["predictions_sha256"]]


# --- the process: main, its exit, and its standard streams ------------------------


@pytest.mark.parametrize("argv, exit_code", [
    (["grammar-count", GRAMMAR, "--start", "USER_ANSWER"], 0),
    (["stats", "--in", TOY], 0),
    (["grammar-count", GRAMMAR, "--start", "NO_SUCH_RULE"], 1),
    (["grammar-count", "no-such-grammar.cfg", "--start", "USER_ANSWER"], 2),
], ids=["ok", "stats", "error", "io-error"])
def test_main_exits_with_the_code_and_output_of_run(capsys, monkeypatch, disambig, repo_root, argv, exit_code):
    # main freezes the heap before it exits; run, which embedders call,
    # freezes nothing.
    argv = _shipped(repo_root, argv)
    done = disambig(*argv, process=True)
    monkeypatch.chdir(disambig.cwd)
    frozen = gc.get_freeze_count()
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    assert (done.returncode, done.stdout, done.stderr) == (exit_code, out, err)
    assert code == exit_code
    assert bool(out) == (exit_code == 0)


@pytest.mark.parametrize("argv", [
    ["stats", "--in", TOY],
    ["grammar-count", GRAMMAR, "--start", "USER_ANSWER"],
    ["score", "--preds", "PREDS", "--gold", "GOLD"],
    ["resolve", "--help"],
], ids=["stats", "grammar-count", "score", "help"])
def test_closed_stdout_pipe_is_one_io_error(disambig, tmp_path, repo_root, argv):
    # With PYTHONUNBUFFERED unset, stdout is block-buffered, so what a
    # command prints reaches the pipe only when the buffer is flushed.
    paths = {"PREDS": tmp_path / "preds.jsonl", "GOLD": tmp_path / "gold.jsonl"}
    paths["PREDS"].write_text(json.dumps(_PREDICTION) + "\n", encoding="utf-8")
    paths["GOLD"].write_text(_EXAMPLE + "\n", encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = disambig(*(paths.get(arg, arg) for arg in _shipped(repo_root, argv)), process=True, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("i/o error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr


_NOT_GUESSED = "error: /dev/stdin: not a regular file, so its kind is not guessed from its first row: give "


# Inputs fed through a pipe, which can be read only once: the kind of such a
# file is not guessed, and a row is named by its number, since no second read
# can find its line.
@pytest.mark.parametrize("piped, argv, error", [
    (_EXAMPLE, ["resolve", "--in", "/dev/stdin", "--out", "OUT"], _NOT_GUESSED + "--kind\n"),
    (_EXAMPLE, ["score", "--preds", "PREDS", "--gold", "/dev/stdin"], _NOT_GUESSED + "a regular file\n"),
    (_example(6), ["resolve", "--in", "/dev/stdin", "--kind", "examples", "--out", "OUT"],
     "error: /dev/stdin: row 1: resolve expects between 1 and 5 candidates, got 6\n"),
    (_example(2) + "\n\n" + _example(6), ["resolve", "--in", "/dev/stdin", "--kind", "examples", "--out", "OUT"],
     "error: /dev/stdin: row 2: resolve expects between 1 and 5 candidates, got 6\n"),
    (_record(2) + "\n\n" + _record(6, turn_index=3),
     ["resolve", "--in", "/dev/stdin", "--kind", "records", "--out", "OUT"],
     "error: /dev/stdin: row 2: resolve expects between 1 and 5 candidates, got 6\n"),
], ids=["resolve-kind-not-guessed", "score-kind-not-guessed", "resolve-examples-first-row", "resolve-examples-pool",
        "resolve-records-pool"])
def test_piped_input_is_one_error_line(disambig, tmp_path, piped, argv, error):
    (tmp_path / "preds.jsonl").write_text(json.dumps(_PREDICTION) + "\n", encoding="utf-8")
    paths = {"OUT": tmp_path / "out.jsonl", "PREDS": tmp_path / "preds.jsonl"}
    done = disambig(*(paths.get(arg, arg) for arg in argv), process=True, input=piped + "\n")
    assert (done.returncode, done.stdout, done.stderr) == (1, "", error)
    assert not (tmp_path / "out.jsonl").exists()


def test_piped_input_of_a_given_kind_is_read_once(disambig, tmp_path):
    examples = tmp_path / "examples.jsonl"
    examples.write_text(_example(3) + "\n" + _example(4) + "\n", encoding="utf-8")
    piped = disambig("resolve", "--in", "/dev/stdin", "--kind", "examples", "--out", tmp_path / "piped.jsonl",
                     process=True, input=examples.read_text())
    named = disambig("resolve", "--in", examples, "--out", tmp_path / "named.jsonl", process=True)
    assert (piped.returncode, named.returncode) == (0, 0), piped.stderr
    assert (tmp_path / "piped.jsonl").read_bytes() == (tmp_path / "named.jsonl").read_bytes()


@pytest.mark.parametrize("mode", ["a", "w"], ids=["append", "truncate"])
def test_out_dev_stdout_writes_where_stdout_does(disambig, tmp_path, repo_root, mode):
    # As ``>> log`` and ``> log`` leave stdout: what the file held before
    # stays after an append.
    log = tmp_path / "log"
    log.write_text("earlier\n", encoding="utf-8")
    with open(log, mode, encoding="utf-8") as handle:
        done = disambig("stats", "--in", repo_root / TOY, "--out", "/dev/stdout", process=True, stdout=handle)
    assert done.returncode == 0, done.stderr
    report = disambig("stats", "--in", repo_root / TOY, process=True)
    assert report.returncode == 0, report.stderr
    assert log.read_text(encoding="utf-8") == ("earlier\n" if mode == "a" else "") + report.stdout


# --- a bad row late in an input, and a write that fails midway ---------------------


@pytest.fixture(scope="module")
def augmented_toy(disambig, tmp_path_factory, repo_root) -> Path:
    """The seed-0 augment outputs of the toy corpus and their predictions."""
    out = tmp_path_factory.mktemp("contract") / "augmented"
    for argv in (["augment", "--in", TOY, "--db", DB, "--grammar", GRAMMAR, "--out", str(out)],
                 ["resolve", "--in", str(out / "records.jsonl"), "--kind", "records", "--out", str(out / "preds.jsonl")]):
        done = disambig(*_shipped(repo_root, argv))
        assert done.returncode == 0, done.stderr
    return out

# The last row of the toy corpus, or of the augmented toy corpus, made bad:
# what it is and the error line it must give (the file's line 52).
_LATE_FAULTS = {
    "malformed": (lambda text: text + '{"id": "late", "services": [], "turns": ["ab"]}\n',
                  "line 52: dialog 'late' turn 0: expected an object, got 'ab'"),
    "repeated-id": (lambda text: text + text.splitlines(keepends=True)[1],
                    "line 52: duplicate dialog id 'hotel_accept_2nd'"),
}


def _late_case(command: str, work: Path, repo_root: Path, augmented: Path) -> tuple[Path, Path, list]:
    """The input a bad row is added to, the output path and the argv, in
    which IN is the input and OUT the output."""
    if command == "augment":
        return repo_root / TOY, work / "made" / "aug", [
            "augment", "--in", "IN", "--db", repo_root / DB, "--grammar", repo_root / GRAMMAR, "--out", "OUT"]
    if command == "score":
        return augmented / "corpus.jsonl", work / "score.json", [
            "score", "--preds", augmented / "preds.jsonl", "--gold", "IN", "--records", augmented / "records.jsonl",
            "--out", "OUT"]
    return repo_root / TOY, work / "stats.json", ["stats", "--in", "IN", "--out", "OUT"]


@pytest.mark.parametrize("fault", _LATE_FAULTS)
@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier-output"])
@pytest.mark.parametrize("command", ["augment", "score", "stats"])
def test_a_bad_last_row_leaves_no_output(disambig, tmp_path, repo_root, augmented_toy, command, fault, earlier):
    # By the last row, every dialog before it is written to the staged outputs.
    source, out, argv = _late_case(command, tmp_path, repo_root, augmented_toy)
    make_bad, message = _LATE_FAULTS[fault]
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    bad.write_text(make_bad(good.read_text(encoding="utf-8")), encoding="utf-8")

    def argv_for(path: Path) -> list:
        return [path if part == "IN" else out if part == "OUT" else part for part in argv]

    if earlier:
        assert disambig(*argv_for(good)).returncode == 0
    before = _tree(tmp_path)
    done = disambig(*argv_for(bad))
    assert (done.returncode, done.stderr) == (1, f"error: {bad}: {message}\n")
    assert _tree(tmp_path) == before  # no output, no temporary file, an earlier output unchanged
    assert (tmp_path / "made").exists() == (earlier and command == "augment")


# Each subcommand that writes a file: its argv, in which IN/ starts a file
# of the augmented toy corpus and OUT is the --out path, and the file under
# OUT, if OUT is a directory, whose size the file-size limit is set below.
_WRITERS = {
    "synth": (["synth", "--db", DB, "--grammar", GRAMMAR, "--total", "0,0,40", "--splits", "test", "--out", "OUT"],
              "test.jsonl"),
    "augment": (["augment", "--in", TOY, "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"], "corpus.jsonl"),
    "stats": (["stats", "--in", TOY, "--out", "OUT"], ""),
    "upsample": (["upsample", "--in", "IN/corpus.jsonl", "--factor", "2", "--out", "OUT"], ""),
    "resolve": (["resolve", "--in", "IN/records.jsonl", "--kind", "records", "--out", "OUT"], ""),
    "score": (["score", "--preds", "IN/preds.jsonl", "--gold", "IN/corpus.jsonl", "--records", "IN/records.jsonl",
               "--out", "OUT"], ""),
}


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier-output"])
@pytest.mark.parametrize("command", _WRITERS)
def test_a_write_past_the_file_size_limit_leaves_no_output(disambig, tmp_path, repo_root, augmented_toy, command,
                                                           earlier):
    template, name = _WRITERS[command]

    def argv_for(out: Path) -> list[str]:
        return [str(out) if part == "OUT" else str(augmented_toy / part[3:]) if part.startswith("IN/") else part
                for part in _shipped(repo_root, template)]

    def written(out: Path) -> Path:
        return out / name if name else out

    reference = tmp_path / "reference" / "out"
    assert disambig(*argv_for(reference)).returncode == 0
    out = tmp_path / "work" / "out"
    if earlier:
        written(out).parent.mkdir(parents=True)
        written(out).write_text("earlier bytes\n")
    before = _tree(tmp_path / "work")
    done = disambig(*argv_for(out), process=True, file_size_limit=written(reference).stat().st_size // 2)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("i/o error: ") and done.stderr.count("\n") == 1, done.stderr
    assert _tree(tmp_path / "work") == before  # no output, no temporary file, an earlier output unchanged
    assert out.exists() == earlier


@pytest.mark.parametrize("command", ["resolve", "synth"])
def test_a_write_past_8_kib_is_one_io_error(disambig, tmp_path, repo_root, command):
    synth = ["synth", "--db", DB, "--grammar", GRAMMAR, "--total", "0,0,200", "--splits", "test"]
    examples = tmp_path / "examples"
    assert disambig(*_shipped(repo_root, synth), "--out", examples).returncode == 0
    out = tmp_path / "out"
    argv = ["resolve", "--in", examples / "test.jsonl"] if command == "resolve" else _shipped(repo_root, synth)
    before = _tree(tmp_path)
    done = disambig(*argv, "--out", out, process=True, file_size_limit=8 * 1024)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("i/o error: ") and done.stderr.count("\n") == 1, done.stderr
    assert _tree(tmp_path) == before  # no output and no temporary file
