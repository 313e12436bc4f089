"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and time budget is pinned here, nothing is deferred
to later calibration.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from disambig.augmenter import augment_corpus, multi_result_report
from disambig.cli import run as cli_run
from disambig.corpus import name_key
from disambig.grammar import count_language, load_grammar
from disambig.metrics import (
    entity_accuracy,
    joint_goal_accuracy,
    slot_accuracy,
)
from disambig.resolver import edit_distance, predict_names
from disambig.synthesizer import (
    AddressingMethod,
    METHODS,
    synthesize_example,
)

from .oracles import enumerate_templates
from .test_metrics import _entity_fixture, _state_dialog

MAX_FUZZY = 0.25


def _passed(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_1_grammar_capacity(shipped_grammar):
    started = time.perf_counter()
    system_count = count_language(shipped_grammar, "SYSTEM_QUESTION")
    user_count = count_language(shipped_grammar, "USER_ANSWER")
    elapsed = time.perf_counter() - started
    assert system_count >= 2_000_000
    assert user_count >= 30_000
    assert elapsed < 1.0

    # exact agreement with brute-force enumeration on small grammars
    for source in (
        "S -> a | b",
        "S -> A B\nA -> a | b | c\nB -> x | y | z",
        "S -> P Q | Q P\nP -> p1 | p2 | p3 | p4\nQ -> q1 q2 | q3",
        "S -> A A2 A3\nA -> a | b\nA2 -> c | d | e\nA3 -> B B\nB -> f | g",
    ):
        grammar = load_grammar(source)
        start = grammar.start_symbols[0]
        enumerated = enumerate_templates(grammar, start)
        assert len(enumerated) <= 10_000
        assert count_language(grammar, start) == len(set(enumerated))
    _passed(1, "grammar capacity",
            f"SYSTEM_QUESTION={system_count:,} USER_ANSWER={user_count:,} in {elapsed * 1000:.0f} ms")


def test_criterion_2_candidate_bounds(shipped_db, shipped_grammar):
    domains = sorted(shipped_db.tables)
    counts = {3: 0, 4: 0, 5: 0}
    started = time.perf_counter()
    for index in range(10_000):
        method = METHODS[index % len(METHODS)]
        example = synthesize_example(shipped_db, shipped_grammar, domains[index % 27], method, index)
        assert 3 <= len(example.candidates) <= 5
        assert all(0 <= t < len(example.candidates) for t in example.targets)
        counts[len(example.candidates)] += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    chi2 = scipy_stats.chisquare(list(counts.values()))
    assert chi2.pvalue > 0.001
    _passed(2, "candidate bounds", f"counts={counts} p={chi2.pvalue:.3f} in {elapsed:.1f} s")


def test_criterion_3_resolver_round_trip(shipped_db, shipped_grammar):
    domains = sorted(shipped_db.tables)
    budget_methods = (
        AddressingMethod.EXACT,
        AddressingMethod.POSITIONAL,
        AddressingMethod.PARTIAL,
        AddressingMethod.TYPO,
        AddressingMethod.MULTIPLE,
    )
    started = time.perf_counter()
    recovered: dict[str, list[int]] = {m.value: [0, 0] for m in budget_methods}
    typo_separated = [0, 0]
    for method in budget_methods:
        for index in range(10_000):
            example = synthesize_example(
                shipped_db, shipped_grammar, domains[index % 27], method, index
            )
            predicted = {name_key(n) for n in predict_names(example.candidates, example.user_utterance)}
            gold = {name_key(n) for n in example.target_names()}
            hit = predicted == gold
            bucket = recovered[method.value]
            bucket[0] += hit
            bucket[1] += 1
            if method is AddressingMethod.TYPO:
                names = [e["name"] for e in example.candidates]
                separated = all(
                    edit_distance(a, b) / max(len(a), len(b)) > 2 * MAX_FUZZY
                    for i, a in enumerate(names)
                    for b in names[i + 1:]
                )
                if separated:
                    typo_separated[0] += hit
                    typo_separated[1] += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    for method in ("exact", "positional", "partial"):
        hits, total = recovered[method]
        assert hits == total == 10_000, f"{method}: {hits}/{total}"
    hits, total = recovered["multiple"]
    assert hits == total == 10_000, f"multiple: {hits}/{total}"
    assert typo_separated[1] > 0
    typo_rate = typo_separated[0] / typo_separated[1]
    assert typo_rate >= 0.99, f"typo on separated sets: {typo_rate:.4f}"
    _passed(3, "resolver round trip",
            f"exact/positional/partial/multiple=100% typo={typo_rate:.4%} "
            f"on {typo_separated[1]} separated sets in {elapsed:.1f} s")


def test_criterion_4_augmentation_identity(toy_corpus, shipped_db, shipped_grammar, toy_expected):
    started = time.perf_counter()
    augmented, records, _ = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
    applied = [r for r in records if r.skipped_reason is None]
    modified = sorted([r.dialog_id, r.turn_index] for r in applied)
    assert modified == toy_expected["augmentable"]

    allowed = {(r.dialog_id, r.turn_index) for r in applied}
    allowed |= {(d, t + 1) for d, t in allowed}
    for old_dialog, new_dialog in zip(toy_corpus.dialogs, augmented.dialogs):
        assert old_dialog["id"] == new_dialog["id"]
        # dialog-state sequences identical pre/post everywhere
        old_states = [turn["frames"] for turn in old_dialog["turns"]]
        new_states = [turn["frames"] for turn in new_dialog["turns"]]
        assert old_states == new_states
        for index, (old, new) in enumerate(zip(old_dialog["turns"], new_dialog["turns"])):
            if (old_dialog["id"], index) not in allowed:
                assert old == new

    rerun, rerun_records, rerun_stats = augment_corpus(augmented, shipped_db, shipped_grammar, seed=0)
    assert rerun_stats["turns_modified"] == 0 and rerun_records == []
    assert rerun == augmented
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(4, "augmentation identity", f"{len(applied)} turns, idempotent, in {elapsed:.2f} s")


def test_criterion_5_statistics_shape(toy_corpus, shipped_db, shipped_grammar, toy_expected):
    _, _, stats = augment_corpus(toy_corpus, shipped_db, shipped_grammar, seed=0)
    turn_fraction = stats["turns_modified"] / stats["turns_total"]
    dialog_fraction = stats["dialogs_modified"] / stats["dialogs_total"]
    assert abs(turn_fraction - 0.02) <= 0.01
    assert dialog_fraction >= 0.30
    report = multi_result_report(toy_corpus.dialogs)
    assert report == toy_expected["multi_result"]
    _passed(5, "statistics shape",
            f"turns={turn_fraction:.3f} dialogs={dialog_fraction:.2f} multi={report['overall']:.2f}")


def test_criterion_6_metric_correctness():
    gold, preds = _entity_fixture()
    assert entity_accuracy(preds, gold) == pytest.approx(0.7)

    perfect = {}
    for key, row in preds.items():
        dialog = gold.dialogs[[d["id"] for d in gold.dialogs].index(key[0])]
        marker_names = dialog["turns"][0]["extras"]["disambig"]["target_names"]
        perfect[key] = {"dialog_id": key[0], "turn_index": key[1], "entities": list(marker_names)}
    assert entity_accuracy(perfect, gold) == 1.0

    from disambig.corpus import Corpus

    dialogs = []
    state_preds = {}
    for i in range(20):
        gold_slots = {"hotel-area": ["north"], "hotel-name": [f"inn number {i}"]}
        dialogs.append(_state_dialog(f"s{i}", gold_slots))
        predicted = dict(gold_slots) if i < 13 else {"hotel-area": ["wrong"], "hotel-name": [f"inn number {i}"]}
        state_preds[(f"s{i}", 0)] = {"dialog_id": f"s{i}", "turn_index": 0, "entities": [], "state": predicted}
    state_gold = Corpus(dialogs=dialogs)
    assert joint_goal_accuracy(state_preds, state_gold) == pytest.approx(0.65)

    rng = random.Random(1217)
    slots = ["hotel-area", "hotel-stars", "hotel-name"]
    values = ["north", "south", "4", "5", "palm inn", "crown inn"]
    for _ in range(1000):
        sub_dialogs = []
        sub_preds = {}
        for i in range(rng.randint(1, 4)):
            gold_slots = {s: [rng.choice(values)] for s in rng.sample(slots, rng.randint(1, 3))}
            sub_dialogs.append(_state_dialog(f"s{i}", gold_slots))
            predicted = {s: [rng.choice(values)] if rng.random() < 0.5 else list(v)
                         for s, v in gold_slots.items()}
            sub_preds[(f"s{i}", 0)] = {"dialog_id": f"s{i}", "turn_index": 0, "entities": [], "state": predicted}
        sub_gold = Corpus(dialogs=sub_dialogs)
        assert joint_goal_accuracy(sub_preds, sub_gold) <= slot_accuracy(sub_preds, sub_gold) + 1e-12
    _passed(6, "metric correctness", "entity 7/10=0.7, JGA 13/20=0.65, JGA<=slot on 1000 randomized")


def test_criterion_7_end_to_end_determinism(tmp_path, repo_root, capsys):
    grammar = str(repo_root / "grammars" / "disambiguation.cfg")
    db = str(repo_root / "data" / "database.json")
    toy = str(repo_root / "data" / "toy_corpus.jsonl")

    synth_outputs = []
    for name, threads in (("s1", "1"), ("s2", "1"), ("s8", "8")):
        out = tmp_path / name
        assert cli_run(["synth", "--db", db, "--grammar", grammar, "--per-method", "40,0,10",
                        "--splits", "train,test", "--seed", "11", "--threads", threads,
                        "--out", str(out)]) == 0
        synth_outputs.append(out)
    for split in ("train", "test"):
        blobs = {(o / f"{split}.jsonl").read_bytes() for o in synth_outputs}
        assert len(blobs) == 1

    augment_outputs = []
    for name, threads in (("a1", "1"), ("a2", "1"), ("a8", "8")):
        out = tmp_path / name
        assert cli_run(["augment", "--in", toy, "--db", db, "--grammar", grammar,
                        "--seed", "11", "--threads", threads, "--out", str(out)]) == 0
        augment_outputs.append(out)
    for name in ("corpus.jsonl", "records.jsonl", "stats.json"):
        blobs = {(o / name).read_bytes() for o in augment_outputs}
        assert len(blobs) == 1
    capsys.readouterr()
    _passed(7, "end-to-end determinism", "synth and augment byte-identical across runs and threads {1,8}")


def test_criterion_8_baseline_reporting(repo_root, build_data):
    """``build_baseline`` (the default 10k test split, seed 0, resolved and
    scored) gives exactly the tracked baseline file."""
    baseline = build_data.build_baseline()
    tracked = (repo_root / "baselines" / "resolver_baseline.json").read_text(encoding="utf-8")
    assert json.dumps(baseline, indent=2, sort_keys=True) + "\n" == tracked
    assert baseline["per_method"]["multiple"] <= baseline["per_method"]["exact"]
    _passed(8, "baseline reporting",
            f"entity_accuracy_all={baseline['entity_accuracy_all']:.4f} per-method matches tracked baseline")
