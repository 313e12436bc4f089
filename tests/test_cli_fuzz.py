"""Fuzzing of the CLI contract: on any bad input file, flag value or config
value, ``cli.run`` exits 1 or 2 with one ``error:`` line last on stderr,
raises nothing, changes no input file and leaves no output behind.

Runs in-process under the ``ci`` hypothesis profile.  A drawn file can be a
valid input by chance (an empty JSONL file is zero rows), so every argv asks
for tiny work and such a run may exit 0; a drawn flag or config value is
always one that the flag's own parser rejects, so no valid ``--total``,
``--per-method`` or ``--factor`` is ever run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from disambig import cli

from .test_cli import _EXAMPLE, _MALFORMED_INPUTS, _PREDICTION, DB, GRAMMAR, _hotel_offer

# Valid inputs written next to the fuzzed file, so that the fuzzed file is
# the only bad input of a run.
_VALID = {
    "corpus.jsonl": (_hotel_offer() + "\n").encode("utf-8"),
    "gold.jsonl": (_EXAMPLE + "\n").encode("utf-8"),
    "preds.jsonl": (json.dumps(_PREDICTION) + "\n").encode("utf-8"),
}

# For each subcommand, one argv per file input, in which FUZZ becomes the
# fuzzed file and OUT the output path.
_FILE_INPUTS = {
    "grammar-count": [["grammar-count", "FUZZ", "--start", "SYSTEM_QUESTION"]],
    "synth": [["synth", *pair, "--total", "1,0,0", "--out", "OUT"] for pair in (
        ("--db", "FUZZ", "--grammar", GRAMMAR), ("--db", DB, "--grammar", "FUZZ"),
        ("--db", DB, "--grammar", GRAMMAR, "--config", "FUZZ"))],
    "augment": [
        *(["augment", "--in", "FUZZ", "--format", fmt, "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"]
          for fmt in ("native", "sgd", "multiwoz22")),
        *(["augment", "--in", "corpus.jsonl", "--db", DB, "--grammar", GRAMMAR, f"--{flag}", "FUZZ", "--out", "OUT"]
          for flag in ("db", "grammar", "allow-list", "config"))],
    "stats": [["stats", "--in", "FUZZ", "--format", fmt, "--out", "OUT"] for fmt in ("native", "sgd")],
    "upsample": [["upsample", "--in", "FUZZ", "--out", "OUT"]],
    "resolve": [["resolve", "--in", "FUZZ", *kind, "--out", "OUT"] for kind in ([], ["--kind", "records"])],
    "score": [["score", "--preds", "FUZZ", "--gold", "gold.jsonl", "--out", "OUT"],
              ["score", "--preds", "preds.jsonl", "--gold", "FUZZ", "--out", "OUT"],
              ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl", "--records", "FUZZ", "--out", "OUT"]],
}

_SEEDS = sorted({content if isinstance(content, bytes) else content.encode("utf-8")
                 for files, _ in _MALFORMED_INPUTS.values() for content in files.values()})

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

_file_contents = st.one_of(
    st.binary(max_size=64),
    _json_values.map(lambda value: json.dumps(value).encode("utf-8")),  # a whole document
    st.lists(_json_values, max_size=3).map(lambda rows: "".join(json.dumps(r) + "\n" for r in rows).encode("utf-8")),
    st.sampled_from(_SEEDS),
)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="session")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


def _run_contained(argv: list[str], files: dict[str, bytes], scratch: Path, repo_root: Path) -> tuple[int, str]:
    """Run ``argv`` in a fresh directory under ``scratch`` holding ``files``
    and check the contract; return the exit code and stderr."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for name, content in files.items():
            (work / name).write_bytes(content)
        shipped = {token: repo_root / token for token in (DB, GRAMMAR)}
        inputs = [work / name for name in files] + list(shipped.values())
        before = [_digest(path) for path in inputs]
        out = work / "out"
        argv = [str(out) if t == "OUT" else str(work / t) if t in files else str(shipped.get(t, t)) for t in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        err = err.getvalue()
        assert "Traceback" not in err
        assert [_digest(path) for path in inputs] == before
        if code != 0:
            assert code in (1, 2), (code, err)
            last = err.splitlines()[-1]
            assert last.startswith(("error:", "i/o error:", f"disambig {argv[0]}: error:")), err
            assert not out.exists()
        return code, err
    finally:
        shutil.rmtree(work)


@pytest.mark.parametrize("command", _FILE_INPUTS)
@given(data=st.data(), content=_file_contents)
def test_fuzzed_input_file(scratch, repo_root, command, data, content):
    argv = data.draw(st.sampled_from(_FILE_INPUTS[command]), label="argv")
    _run_contained(argv, {**_VALID, "FUZZ": content}, scratch, repo_root)


# Every argv below is valid; a fuzzed flag is appended to it.
_BASE_ARGV = {
    "synth": ["synth", "--db", DB, "--grammar", GRAMMAR, "--total", "1,0,0", "--out", "OUT"],
    "augment": ["augment", "--in", "corpus.jsonl", "--db", DB, "--grammar", GRAMMAR, "--out", "OUT"],
    "stats": ["stats", "--in", "corpus.jsonl", "--out", "OUT"],
    "upsample": ["upsample", "--in", "corpus.jsonl", "--out", "OUT"],
    "resolve": ["resolve", "--in", "gold.jsonl", "--out", "OUT"],
    "score": ["score", "--preds", "preds.jsonl", "--gold", "gold.jsonl", "--out", "OUT"],
}


def _checked_flags(command: str) -> dict[str, argparse.Action]:
    """The flags of ``command`` whose values a parser or a choice list checks, by name."""
    actions = cli.build_parser().subcommands[command]._actions
    return {a.option_strings[0]: a for a in actions
            if a.option_strings and (a.type or a.choices or a.nargs == 0) and a.dest != "help"}


_ACTIONS = {command: flags for command in _BASE_ARGV if (flags := _checked_flags(command))}


def _rejects(action: argparse.Action, text: str) -> bool:
    """Whether the flag's own parser turns ``text`` down."""
    try:
        value = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return True
    return action.choices is not None and value not in action.choices


_flag_texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "1e309", "1,2", "1,2,3,4", "1,-2,3", "99" * 2500]),
)


@pytest.mark.parametrize("command", _ACTIONS)
@given(data=st.data(), text=_flag_texts)
def test_rejected_flag_value(scratch, repo_root, command, data, text):
    flag = data.draw(st.sampled_from([f for f, a in _ACTIONS[command].items() if a.nargs != 0]), label="flag")
    assume(_rejects(_ACTIONS[command][flag], text))
    code, err = _run_contained([*_BASE_ARGV[command], f"{flag}={text}"], _VALID, scratch, repo_root)
    assert code == 1
    assert err.splitlines()[-1].startswith(f"disambig {command}: error: argument {flag}")


@pytest.mark.parametrize("command", ["synth", "augment"])
@given(data=st.data(), value=_flag_texts | _json_values)
def test_rejected_config_value(scratch, repo_root, command, data, value):
    flag = data.draw(st.sampled_from(list(_ACTIONS[command])), label="flag")
    action = _ACTIONS[command][flag]
    if action.nargs == 0:
        assume(not isinstance(value, bool))
    else:  # a config value reaches the flag's parser as its text
        assume(not isinstance(value, list) and _rejects(action, str(value)))
    files = {**_VALID, "config.json": json.dumps({flag[2:]: value}).encode("utf-8")}
    code, err = _run_contained([*_BASE_ARGV[command], "--config", "config.json"], files, scratch, repo_root)
    assert code == 1
    assert err.splitlines()[-1].startswith("error:") and repr(flag[2:]) in err
