"""Guards on the bundled database and toy corpus.

The resolver round-trip guarantees lean on vocabulary discipline in the
shipped data: entity-name tokens must not collide with user-answer grammar
words, attribute values, or ordinal/conjunction cues.  Those rules live once,
in ``tools/build_data.py``; these tests run each of them on the shipped
database and keep later data edits honest.
"""

from __future__ import annotations

import json

from disambig.corpus import load_database, name_key, write_corpus, write_database


def test_every_domain_is_synthesizable(shipped_db):
    assert len(shipped_db.tables) == 27
    for domain, entities in shipped_db.tables.items():
        assert len(entities) >= 5, domain
        assert shipped_db.noun(domain)


def test_name_tokens_avoid_user_side_vocabulary(shipped_db, build_data):
    build_data._check_name_vocabulary(shipped_db)


def test_attribute_values_avoid_name_tokens(shipped_db, build_data):
    build_data._check_attribute_values(shipped_db)


def test_names_within_domain_stay_separated(shipped_db, build_data):
    build_data._check_name_separation(shipped_db)


def test_toy_corpus_entities_come_from_the_database(toy_corpus, shipped_db):
    for dialog in toy_corpus.dialogs:
        for turn in dialog["turns"]:
            for entity in turn.get("search_results", []):
                if entity["domain"] in shipped_db.tables and not entity["name"].startswith("phantom"):
                    assert name_key(entity["name"]) in shipped_db.names(entity["domain"])


def test_build_data_tool_rebuilds_the_shipped_files(tmp_path, repo_root, build_data):
    """``tools/build_data.py`` regenerates the database and the toy corpus
    byte for byte (written under ``tmp_path``, never into ``data/``)."""
    write_database(build_data.build_database(), str(tmp_path / "database.json"))
    corpus, expected = build_data.build_toy_corpus(load_database(str(tmp_path / "database.json")))
    write_corpus(corpus, str(tmp_path / "toy_corpus.jsonl"))
    (tmp_path / "toy_corpus_expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                                                       encoding="utf-8")
    for name in ("database.json", "toy_corpus.jsonl", "toy_corpus_expected.json"):
        assert (tmp_path / name).read_bytes() == (repo_root / "data" / name).read_bytes(), name


def test_stress_baseline_is_pinned(repo_root, shipped_grammar, build_data):
    """The resolver on confusable candidate sets gives, per method, exactly
    the tracked accuracy, rates and sha256 of its predictions."""
    baseline = build_data.build_stress_baseline(shipped_grammar)
    tracked = (repo_root / "baselines" / "resolver_stress_baseline.json").read_text(encoding="utf-8")
    assert json.dumps(baseline, indent=2, sort_keys=True) + "\n" == tracked
