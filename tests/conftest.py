from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from disambig.corpus import load_corpus, load_database
from disambig.grammar import load_grammar_file

ROOT = Path(__file__).resolve().parents[1]

def pytest_addoption(parser):
    parser.addoption("--installed-cli", action="store_true",
                     help="run tests/test_cli_contract.py against the disambig console script on PATH, "
                          "from a directory outside the checkout and with no PYTHONPATH")


settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return ROOT


@pytest.fixture(scope="session")
def shipped_grammar():
    return load_grammar_file(str(ROOT / "grammars" / "disambiguation.cfg"))


@pytest.fixture(scope="session")
def shipped_db():
    return load_database(str(ROOT / "data" / "database.json"))


@pytest.fixture(scope="session")
def toy_corpus():
    return load_corpus(str(ROOT / "data" / "toy_corpus.jsonl"))


@pytest.fixture(scope="session")
def toy_expected():
    import json

    return json.loads((ROOT / "data" / "toy_corpus_expected.json").read_text())


@pytest.fixture(scope="session")
def build_data():
    """The ``tools/build_data.py`` module, which owns the shipped-data rules and baselines."""
    spec = importlib.util.spec_from_file_location("build_data", ROOT / "tools" / "build_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
