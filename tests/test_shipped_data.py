"""Guards on the bundled database and toy corpus.

The resolver round-trip guarantees lean on vocabulary discipline in the
shipped data: entity-name tokens must not collide with user-answer grammar
words, attribute values, or ordinal/conjunction cues.  These tests keep
later data edits honest.
"""

from __future__ import annotations

import importlib.util
import json

from disambig.corpus import load_database, name_key, write_corpus, write_database
from disambig.grammar import Nonterminal, Slot
from disambig.resolver import STOPWORDS, edit_distance
from disambig.synthesizer import _ATTRIBUTE_PHRASES

RESERVED = {
    "first", "second", "third", "fourth", "fifth", "1st", "2nd", "3rd", "4th", "5th",
    "last", "other", "and", "both", "all", "three", "four", "five", "or", "one",
}


def _user_side_vocabulary(grammar) -> set[str]:
    words: set[str] = set()
    for start in ("USER_ANSWER", "ATTRIBUTE_MENTION"):
        stack = [start]
        seen: set[str] = set()
        while stack:
            rule = stack.pop()
            if rule in seen:
                continue
            seen.add(rule)
            for alternative in grammar.rules[rule]:
                for symbol in alternative:
                    if isinstance(symbol, Nonterminal):
                        stack.append(symbol.name)
                    elif not isinstance(symbol, Slot):
                        words.update(part.strip(",.?!:;") for part in symbol.lower().split("'"))
    for pattern in _ATTRIBUTE_PHRASES.values():
        words.update(pattern.replace("{value}", " ").split())
    return {w for w in words if w}


def test_every_domain_is_synthesizable(shipped_db):
    assert len(shipped_db.tables) == 27
    for domain, entities in shipped_db.tables.items():
        assert len(entities) >= 5, domain
        assert shipped_db.noun(domain)


def test_name_tokens_avoid_user_side_vocabulary(shipped_db, shipped_grammar):
    vocabulary = (_user_side_vocabulary(shipped_grammar) | RESERVED) - STOPWORDS
    for entities in shipped_db.tables.values():
        for entity in entities:
            clash = set(entity.name.split()) & vocabulary
            assert not clash, (entity.name, clash)


def test_attribute_values_avoid_name_tokens(shipped_db):
    name_tokens: set[str] = set()
    for entities in shipped_db.tables.values():
        for entity in entities:
            name_tokens.update(entity.name.split())
    for entities in shipped_db.tables.values():
        for entity in entities:
            for value in entity.attributes.values():
                clash = set(str(value).split()) & name_tokens
                assert not clash, (entity.name, value, clash)


def test_names_within_domain_stay_separated(shipped_db):
    for domain, entities in shipped_db.tables.items():
        names = [entity.name for entity in entities]
        keys = {name_key(name) for name in names}
        assert len(keys) == len(names)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert a not in b and b not in a
                assert edit_distance(a, b) / max(len(a), len(b)) > 0.30, (domain, a, b)


def test_toy_corpus_entities_come_from_the_database(toy_corpus, shipped_db):
    for dialog in toy_corpus.dialogs:
        for turn in dialog.turns:
            for entity in turn.search_results or []:
                if entity.domain in shipped_db.tables and not entity.name.startswith("phantom"):
                    assert name_key(entity.name) in shipped_db.names(entity.domain)


def test_build_data_tool_rebuilds_the_shipped_files(tmp_path, repo_root):
    """``tools/build_data.py`` regenerates the database and the toy corpus
    byte for byte (written under ``tmp_path``, never into ``data/``)."""
    spec = importlib.util.spec_from_file_location("build_data", repo_root / "tools" / "build_data.py")
    build_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_data)
    write_database(build_data.build_database(), str(tmp_path / "database.json"))
    corpus, expected = build_data.build_toy_corpus(load_database(str(tmp_path / "database.json")))
    write_corpus(corpus, str(tmp_path / "toy_corpus.jsonl"))
    (tmp_path / "toy_corpus_expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                                                       encoding="utf-8")
    for name in ("database.json", "toy_corpus.jsonl", "toy_corpus_expected.json"):
        assert (tmp_path / name).read_bytes() == (repo_root / "data" / name).read_bytes(), name
