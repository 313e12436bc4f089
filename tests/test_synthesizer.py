from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from disambig.corpus import SPLITS, Database, dialog_row, load_corpus, name_key, write_corpus
from disambig.errors import GrammarError, SchemaMismatch, Unwordable
from disambig.grammar import load_grammar
from disambig.metrics import score
from disambig.resolver import predict_names
from disambig.synthesizer import (
    AddressingMethod,
    METHODS,
    SynthConfig,
    _partial_mention,
    apply_addressing,
    check_grammar,
    example_dialog_id,
    examples_to_corpus,
    format_option_list,
    read_examples,
    synthesize_example,
    synthesize_split,
    write_examples,
)

from .oracles import slow_edit_distance, slow_partial_mention


def _entities(*names: str, domain: str = "restaurant") -> list[dict]:
    return [{"domain": domain, "name": name, "attributes": {}} for name in names]


# Case twins, stopwords in both cases, and punctuation attached to tokens.
_PARTIAL_VOCABULARY = ("palm", "Palm", "palm,", "(palm)", "the", "The", "of", "and", "inn", "inn.", "north", "lodge")


@st.composite
def _partial_cases(draw) -> tuple[dict, list[dict]]:
    """A target and the other candidates, from names of one to five tokens
    drawn with repeats, sometimes with one name equal to a window of another."""
    names = draw(st.lists(st.lists(st.sampled_from(_PARTIAL_VOCABULARY), min_size=1, max_size=5),
                          min_size=2, max_size=5))
    if draw(st.booleans()):
        source = draw(st.sampled_from(names))
        start = draw(st.integers(0, len(source) - 1))
        names.append(source[start:draw(st.integers(start + 1, len(source)))])
    entities = draw(st.permutations(_entities(*(" ".join(tokens) for tokens in names), domain="hotel")))
    index = draw(st.integers(0, len(entities) - 1))
    return entities[index], entities[:index] + entities[index + 1:]


class TestApplyAddressing:
    def test_exact_is_verbatim(self, shipped_grammar):
        candidates = _entities("alpha kitchen", "briar manor", "cedar lodge")
        mention = apply_addressing(candidates, [2], AddressingMethod.EXACT, 0, shipped_grammar, "restaurant")
        assert mention == "cedar lodge"

    def test_positional_second(self, shipped_grammar):
        candidates = _entities("alpha kitchen", "briar manor", "cedar lodge")
        mention = apply_addressing(candidates, [1], AddressingMethod.POSITIONAL, 0, shipped_grammar, "restaurant")
        assert mention == "the second one"

    def test_partial_prefers_shortest_unique_prefix(self, shipped_grammar):
        candidates = _entities("chiquito restauraant bar", "copper kettle", "mill house tavern")
        mention = apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0, shipped_grammar, "restaurant")
        assert mention == "chiquito"

    def test_partial_extends_window_until_unique(self, shipped_grammar):
        # shared first tokens force a window containing the distinctive word
        candidates = _entities("north lodge retreat", "north lodge villas")
        mention = apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0, shipped_grammar, "restaurant")
        assert "retreat" in mention
        assert mention != "north lodge retreat"

    def test_partial_skips_stopword_only_windows(self, shipped_grammar):
        candidates = _entities("the palm", "copper kettle")
        assert apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0, shipped_grammar, "restaurant") == "palm"

    def test_partial_is_judged_on_the_tokens_the_resolver_reads(self, shipped_grammar):
        # "Royal" is also a window of "royal lodge" once case is folded.
        candidates = _entities("Royal Court", "royal lodge")
        mention = apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0, shipped_grammar, "restaurant")
        assert mention == "Court"
        assert predict_names(candidates, mention) == ["Royal Court"]

    def test_partial_is_never_another_candidates_whole_name(self, shipped_grammar):
        # "Palm" would read as an exact match for "palm".
        candidates = _entities("palm Palm", "palm")
        with pytest.raises(Unwordable, match="^every proper subsequence of 'palm Palm' is ambiguous$"):
            apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0, shipped_grammar, "restaurant")

    def test_partial_holds_no_other_candidates_whole_name(self, shipped_grammar):
        # "palm court" would read as exact matches for "palm" and "court".
        target, *others = _entities("palm court inn", "palm", "court")
        for candidates in itertools.permutations([target, *others]):
            mention = apply_addressing(list(candidates), [candidates.index(target)], AddressingMethod.PARTIAL, 0,
                                       shipped_grammar, "restaurant")
            assert mention == "inn"
            assert predict_names(list(candidates), mention) == ["palm court inn"]

    def test_partial_single_token_name_fails(self, shipped_grammar):
        candidates = _entities("unique", "copper kettle")
        with pytest.raises(Unwordable, match="^every proper subsequence of 'unique' is ambiguous$"):
            apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0, shipped_grammar, "restaurant")

    @settings(max_examples=500)
    @given(case=_partial_cases())
    def test_partial_matches_the_slow_reference(self, case):
        def outcome(mention):
            try:
                return mention(*case)
            except Unwordable as exc:
                return f"Unwordable: {exc}"

        assert outcome(_partial_mention) == outcome(slow_partial_mention)

    def test_typo_is_exactly_one_edit(self, shipped_grammar):
        candidates = _entities("glorious gardens", "marble brasserie", "willow eatery")
        for seed in range(200):
            mention = apply_addressing(candidates, [0], AddressingMethod.TYPO, seed, shipped_grammar, "restaurant")
            assert mention != "glorious gardens"
            assert mention not in ("marble brasserie", "willow eatery")
            assert slow_edit_distance(mention, "glorious gardens") == 1

    def test_multiple_joins_exact_names(self, shipped_grammar):
        candidates = _entities("alpha kitchen", "briar manor", "cedar lodge")
        mention = apply_addressing(candidates, [0, 2], AddressingMethod.MULTIPLE, 3, shipped_grammar, "restaurant")
        assert "alpha kitchen" in mention and "cedar lodge" in mention and "and" in mention
        three = apply_addressing(candidates, [0, 1, 2], AddressingMethod.MULTIPLE, 3, shipped_grammar, "restaurant")
        assert three.count(",") >= 1 and "and" in three

    def test_multiple_requires_two_targets(self, shipped_grammar):
        candidates = _entities("alpha kitchen", "briar manor")
        with pytest.raises(SchemaMismatch, match="^multiple addressing needs at least two targets$"):
            apply_addressing(candidates, [0], AddressingMethod.MULTIPLE, 0, shipped_grammar, "restaurant")
        with pytest.raises(SchemaMismatch, match="^exact addressing needs exactly one target$"):
            apply_addressing(candidates, [0, 1], AddressingMethod.EXACT, 0, shipped_grammar, "restaurant")
        with pytest.raises(SchemaMismatch, match="^targets must be distinct valid candidate indices$"):
            apply_addressing(candidates, [0, 0], AddressingMethod.MULTIPLE, 0, shipped_grammar, "restaurant")

    def test_attribute_paper_example(self, shipped_grammar):
        candidates = [
            {"domain": "restaurant", "name": "alpha kitchen", "attributes": {"area": "north", "price_range": "cheap"}},
            {"domain": "restaurant", "name": "briar manor", "attributes": {"area": "south", "price_range": "cheap"}},
            {"domain": "restaurant", "name": "cedar lodge", "attributes": {"area": "west", "price_range": "cheap"}},
        ]
        for seed in range(20):
            mention = apply_addressing(candidates, [0], AddressingMethod.ATTRIBUTE, seed, shipped_grammar, "restaurant")
            assert mention == "the restaurant in the north of the city"

    def test_attribute_falls_back_to_pairs(self, shipped_grammar):
        candidates = [
            {"domain": "hotel", "name": "alpha lodge", "attributes": {"area": "north", "stars": "4"}},
            {"domain": "hotel", "name": "briar manor", "attributes": {"area": "north", "stars": "3"}},
            {"domain": "hotel", "name": "cedar suites", "attributes": {"area": "south", "stars": "4"}},
        ]
        mention = apply_addressing(candidates, [0], AddressingMethod.ATTRIBUTE, 0, shipped_grammar, "hotel")
        assert "north" in mention and "4 stars" in mention and " and " in mention

    def test_attribute_no_discriminator(self, shipped_grammar):
        candidates = [
            {"domain": "hotel", "name": "alpha lodge", "attributes": {"area": "north"}},
            {"domain": "hotel", "name": "briar manor", "attributes": {"area": "north"}},
        ]
        with pytest.raises(Unwordable, match="^no attribute combination separates 'alpha lodge' from"):
            apply_addressing(candidates, [0], AddressingMethod.ATTRIBUTE, 0, shipped_grammar, "hotel")

    def test_grammar_and_noun_are_required(self, shipped_grammar):
        # The wording comes from the grammar and the noun from the database;
        # there is no built-in template or noun to fall back on.
        candidates = _entities("alpha kitchen", "briar manor")
        with pytest.raises(TypeError):
            apply_addressing(candidates, [0], AddressingMethod.EXACT, 0)
        with pytest.raises(TypeError):
            apply_addressing(candidates, [0], AddressingMethod.EXACT, 0, shipped_grammar)


class TestSynthesizeExample:
    def test_candidate_bounds_and_targets(self, shipped_db, shipped_grammar):
        domains = sorted(shipped_db.tables)
        for seed in range(300):
            method = METHODS[seed % len(METHODS)]
            example = synthesize_example(shipped_db, shipped_grammar, domains[seed % 27], method, seed)
            assert 3 <= len(example.candidates) <= 5
            assert all(0 <= t < len(example.candidates) for t in example.targets)
            assert len(set(example.targets)) == len(example.targets)
            if method is AddressingMethod.MULTIPLE:
                assert 2 <= len(example.targets) <= len(example.candidates)
            else:
                assert len(example.targets) == 1

    def test_deterministic(self, shipped_db, shipped_grammar):
        first = synthesize_example(shipped_db, shipped_grammar, "hotel", AddressingMethod.EXACT, 11)
        second = synthesize_example(shipped_db, shipped_grammar, "hotel", AddressingMethod.EXACT, 11)
        assert first == second

    def test_each_candidate_named_once_in_system_utterance(self, shipped_db, shipped_grammar):
        for seed in range(150):
            example = synthesize_example(shipped_db, shipped_grammar, "movies_1", AddressingMethod.EXACT, seed)
            for entity in example.candidates:
                assert example.system_utterance.count(entity["name"]) == 1

    def test_unknown_domain(self, shipped_db, shipped_grammar):
        with pytest.raises(SchemaMismatch, match="^unknown domain 'zeppelins'$"):
            synthesize_example(shipped_db, shipped_grammar, "zeppelins", AddressingMethod.EXACT, 0)

    def test_small_table_rejected(self, shipped_grammar):
        db = Database(
            tables={"d": _entities("alpha kitchen", "briar manor", domain="d")},
        )
        with pytest.raises(SchemaMismatch, match="^need 5 distinct entities, table has 2$"):
            synthesize_example(db, shipped_grammar, "d", AddressingMethod.EXACT, 0)

    def test_grammar_missing_start(self, shipped_db):
        from disambig.grammar import load_grammar

        incomplete = load_grammar("SYSTEM_QUESTION -> pick from {option_list}")
        with pytest.raises(GrammarError, match="^unknown start symbol or rule name 'USER_ANSWER'$"):
            synthesize_example(shipped_db, incomplete, "hotel", AddressingMethod.EXACT, 0)

    def test_single_target_methods_resolve_without_tie(self, shipped_db, shipped_grammar):
        from disambig.resolver import resolve

        domains = sorted(shipped_db.tables)
        for method in (AddressingMethod.EXACT, AddressingMethod.POSITIONAL, AddressingMethod.PARTIAL):
            for seed in range(200):
                example = synthesize_example(shipped_db, shipped_grammar, domains[seed % 27], method, seed)
                resolution = resolve(example.candidates, example.user_utterance)
                assert not resolution.ambiguous
                assert resolution.matches[0].index == example.targets[0]

    def test_exact_round_trip_sample(self, shipped_db, shipped_grammar):
        domains = sorted(shipped_db.tables)
        for seed in range(400):
            example = synthesize_example(shipped_db, shipped_grammar, domains[seed % 27], AddressingMethod.EXACT, seed)
            names = predict_names(example.candidates, example.user_utterance)
            assert [name_key(n) for n in names] == [name_key(n) for n in example.target_names()]


class TestDataset:
    def test_per_method_counts(self, shipped_db, shipped_grammar):
        config = SynthConfig(totals=None, per_method=(10, 1, 1), seed=3)
        train, dev, test = (synthesize_split(shipped_db, shipped_grammar, config, split) for split in SPLITS)
        assert (len(train), len(dev), len(test)) == (60, 6, 6)
        per_method = {m: sum(1 for e in train if e.method is m) for m in METHODS}
        assert all(count == 10 for count in per_method.values())

    def test_default_config_split_sizes(self):
        from disambig.synthesizer import _split_plan

        config = SynthConfig()
        assert [len(_split_plan(config, i)) for i in range(3)] == [100_000, 10_000, 10_000]

    def test_total_counts_cycle_methods(self, shipped_db, shipped_grammar):
        config = SynthConfig(totals=(12, 6, 6), seed=1)
        train, dev, test = (synthesize_split(shipped_db, shipped_grammar, config, split) for split in SPLITS)
        assert (len(train), len(dev), len(test)) == (12, 6, 6)
        assert {e.method for e in dev} == set(METHODS)

    def test_domains_cycle_over_all_27(self, shipped_db, shipped_grammar):
        config = SynthConfig(totals=(27, 0, 0), seed=0)
        train = synthesize_split(shipped_db, shipped_grammar, config, "train")
        assert {e.domain for e in train} == set(shipped_db.tables)

    def test_split_seeds_disjoint(self, shipped_db, shipped_grammar):
        config = SynthConfig(totals=(6, 6, 6), seed=0)
        train, dev, test = (synthesize_split(shipped_db, shipped_grammar, config, split) for split in SPLITS)
        fingerprints = {
            split[0].system_utterance + split[0].user_utterance for split in (train, dev, test)
        }
        assert len(fingerprints) == 3

    def test_jsonl_round_trip_and_determinism(self, shipped_db, shipped_grammar, tmp_path):
        config = SynthConfig(totals=(0, 0, 12), seed=5)
        test_split = synthesize_split(shipped_db, shipped_grammar, config, "test")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_examples(test_split, str(first))
        write_examples(synthesize_split(shipped_db, shipped_grammar, config, "test"), str(second))
        assert first.read_bytes() == second.read_bytes()
        loaded = read_examples(str(first))
        assert [e.to_json() for e in loaded] == [e.to_json() for e in test_split]

    def test_examples_to_corpus_markers(self, shipped_db, shipped_grammar):
        examples = synthesize_split(shipped_db, shipped_grammar, SynthConfig(totals=(0, 0, 4), seed=2), "test")
        gold = examples_to_corpus(examples)
        assert len(gold.dialogs) == 4
        marker = gold.dialogs[0]["turns"][0]["extras"]["disambig"]
        assert marker["origin"] == "synth"
        assert marker["target_names"] == examples[0].target_names()

    def test_examples_view_holds_only_what_scoring_reads(self, shipped_db, shipped_grammar):
        examples = synthesize_split(shipped_db, shipped_grammar, SynthConfig(totals=(0, 0, 6), seed=2), "test")
        for dialog, example in zip(examples_to_corpus(examples).dialogs, examples):
            system, user = dialog["turns"]
            assert dialog_row(json.loads(json.dumps(dialog))) == dialog  # the loader's rows
            assert [t["frames"] for t in dialog["turns"]] == [[], []]
            assert "search_results" not in system and "search_results" not in user
            assert system["extras"]["disambig"] == {
                "origin": "synth", "method": example.method.value, "target_names": example.target_names(),
                "candidate_names": [e["name"] for e in example.candidates]}

    def test_examples_view_scores_the_same_from_a_file(self, shipped_db, shipped_grammar, tmp_path):
        # Loading checks every marker gold_marker built; the report must not move.
        examples = synthesize_split(shipped_db, shipped_grammar, SynthConfig(totals=(0, 0, 300), seed=7), "test")
        preds = {}
        for index, example in enumerate(examples):
            names = predict_names(example.candidates, example.user_utterance)
            preds[(example_dialog_id(index), 0)] = {"dialog_id": example_dialog_id(index), "turn_index": 0,
                                                    "entities": names}
        gold = examples_to_corpus(examples)
        write_corpus(gold, str(tmp_path / "gold.jsonl"))
        loaded = load_corpus(str(tmp_path / "gold.jsonl"))
        assert score(preds, loaded) == score(preds, gold)


def test_format_option_list():
    assert format_option_list(["a", "b", "c"]) == "a, b, or c"
    assert format_option_list(["a", "b", "c", "d"]) == "a, b, c, or d"
    assert format_option_list(["a"]) == "a"


def test_option_list_lands_verbatim_in_system_utterance(shipped_db, shipped_grammar):
    example = synthesize_example(shipped_db, shipped_grammar, "hotel", AddressingMethod.EXACT, 1)
    names = [e["name"] for e in example.candidates]
    assert format_option_list(names) in example.system_utterance


_QUESTION = "SYSTEM_QUESTION -> which of {option_list}?\n"
_ATTRIBUTE = "ATTRIBUTE_MENTION -> the {domain_noun} {attribute_phrase}\n"


@pytest.mark.parametrize("source, methods, message", [
    (_QUESTION + "USER_ANSWER -> {mention} | {mention} please.\n", METHODS[:1], None),
    (_QUESTION + "USER_ANSWER -> {mention} | a\n", METHODS[:1],
     "rule 'USER_ANSWER': slot {mention} must occur exactly once in every derivation, but occurs 0 to 1 times"),
    (_QUESTION + "USER_ANSWER -> A A\nA -> {mention}\n", METHODS[:1],
     "rule 'USER_ANSWER': slot {mention} must occur exactly once in every derivation, but occurs 2 times"),
    ("SYSTEM_QUESTION -> which {entity_type}?\nUSER_ANSWER -> {mention}\n", METHODS[:1],
     "rule 'SYSTEM_QUESTION': slot {option_list} must occur exactly once in every derivation, but occurs 0 times"),
    (_QUESTION + "USER_ANSWER -> {mention} | {mention} of {entity_type}\n", METHODS[:1],
     "rule 'USER_ANSWER': slot {entity_type} can occur, but only {mention} can be filled there"),
    # ATTRIBUTE_MENTION is read only when the attribute method is in use.
    (_QUESTION + "USER_ANSWER -> {mention}\nATTRIBUTE_MENTION -> the {domain_noun}\n", METHODS[:5], None),
    (_QUESTION + "USER_ANSWER -> {mention}\nATTRIBUTE_MENTION -> the {domain_noun}\n", METHODS,
     "rule 'ATTRIBUTE_MENTION': slot {attribute_phrase} must occur exactly once in every derivation, "
     "but occurs 0 times"),
    (_QUESTION + "USER_ANSWER -> {mention}\n" + _ATTRIBUTE, METHODS, None),
])
def test_check_grammar_names_the_rule_and_the_slot(source, methods, message):
    grammar = load_grammar(source)
    if message is None:
        check_grammar(grammar, methods)
    else:
        with pytest.raises(GrammarError) as info:
            check_grammar(grammar, methods)
        assert str(info.value) == message
