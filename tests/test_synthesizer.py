from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from disambig.corpus import SPLITS, Database, Entity, name_key
from disambig.errors import (
    InvalidTargetArity,
    NoDiscriminatingAttribute,
    NotEnoughEntities,
    NoUniquePartial,
    UnknownDomain,
)
from disambig.resolver import predict_names
from disambig.synthesizer import (
    AddressingMethod,
    METHODS,
    SynthConfig,
    _partial_mention,
    apply_addressing,
    examples_to_corpus,
    format_option_list,
    read_examples,
    synthesize_example,
    synthesize_split,
    write_examples,
)

from .oracles import slow_edit_distance, slow_partial_mention


def _entities(*names: str, domain: str = "restaurant") -> list[Entity]:
    return [Entity(domain=domain, name=name) for name in names]


# Case twins, stopwords in both cases, and punctuation attached to tokens.
_PARTIAL_VOCABULARY = ("palm", "Palm", "palm,", "(palm)", "the", "The", "of", "and", "inn", "inn.", "north", "lodge")


@st.composite
def _partial_cases(draw) -> tuple[Entity, list[Entity]]:
    """A target and the other candidates, from names of one to five tokens
    drawn with repeats, sometimes with one name equal to a window of another."""
    names = draw(st.lists(st.lists(st.sampled_from(_PARTIAL_VOCABULARY), min_size=1, max_size=5),
                          min_size=2, max_size=5))
    if draw(st.booleans()):
        source = draw(st.sampled_from(names))
        start = draw(st.integers(0, len(source) - 1))
        names.append(source[start:draw(st.integers(start + 1, len(source)))])
    entities = draw(st.permutations([Entity(domain="hotel", name=" ".join(tokens)) for tokens in names]))
    index = draw(st.integers(0, len(entities) - 1))
    return entities[index], entities[:index] + entities[index + 1:]


class TestApplyAddressing:
    def test_exact_is_verbatim(self):
        candidates = _entities("alpha kitchen", "briar manor", "cedar lodge")
        assert apply_addressing(candidates, [2], AddressingMethod.EXACT, 0) == "cedar lodge"

    def test_positional_second(self):
        candidates = _entities("alpha kitchen", "briar manor", "cedar lodge")
        assert apply_addressing(candidates, [1], AddressingMethod.POSITIONAL, 0) == "the second one"

    def test_partial_prefers_shortest_unique_prefix(self):
        candidates = _entities("chiquito restauraant bar", "copper kettle", "mill house tavern")
        assert apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0) == "chiquito"

    def test_partial_extends_window_until_unique(self):
        # shared first tokens force a window containing the distinctive word
        candidates = _entities("north lodge retreat", "north lodge villas")
        mention = apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0)
        assert "retreat" in mention
        assert mention != "north lodge retreat"

    def test_partial_skips_stopword_only_windows(self):
        candidates = _entities("the palm", "copper kettle")
        assert apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0) == "palm"

    def test_partial_single_token_name_fails(self):
        candidates = _entities("unique", "copper kettle")
        with pytest.raises(NoUniquePartial):
            apply_addressing(candidates, [0], AddressingMethod.PARTIAL, 0)

    @settings(max_examples=500)
    @given(case=_partial_cases())
    def test_partial_matches_the_slow_reference(self, case):
        def outcome(mention):
            try:
                return mention(*case)
            except NoUniquePartial as exc:
                return f"NoUniquePartial: {exc}"

        assert outcome(_partial_mention) == outcome(slow_partial_mention)

    def test_typo_is_exactly_one_edit(self):
        candidates = _entities("glorious gardens", "marble brasserie", "willow eatery")
        for seed in range(200):
            mention = apply_addressing(candidates, [0], AddressingMethod.TYPO, seed)
            assert mention != "glorious gardens"
            assert mention not in ("marble brasserie", "willow eatery")
            assert slow_edit_distance(mention, "glorious gardens") == 1

    def test_multiple_joins_exact_names(self):
        candidates = _entities("alpha kitchen", "briar manor", "cedar lodge")
        mention = apply_addressing(candidates, [0, 2], AddressingMethod.MULTIPLE, 3)
        assert "alpha kitchen" in mention and "cedar lodge" in mention and "and" in mention
        three = apply_addressing(candidates, [0, 1, 2], AddressingMethod.MULTIPLE, 3)
        assert three.count(",") >= 1 and "and" in three

    def test_multiple_requires_two_targets(self):
        candidates = _entities("alpha kitchen", "briar manor")
        with pytest.raises(InvalidTargetArity):
            apply_addressing(candidates, [0], AddressingMethod.MULTIPLE, 0)
        with pytest.raises(InvalidTargetArity):
            apply_addressing(candidates, [0, 1], AddressingMethod.EXACT, 0)
        with pytest.raises(InvalidTargetArity):
            apply_addressing(candidates, [0, 0], AddressingMethod.MULTIPLE, 0)

    def test_attribute_paper_example(self):
        candidates = [
            Entity(domain="restaurant", name="alpha kitchen", attributes={"area": "north", "price_range": "cheap"}),
            Entity(domain="restaurant", name="briar manor", attributes={"area": "south", "price_range": "cheap"}),
            Entity(domain="restaurant", name="cedar lodge", attributes={"area": "west", "price_range": "cheap"}),
        ]
        for seed in range(20):
            mention = apply_addressing(candidates, [0], AddressingMethod.ATTRIBUTE, seed, domain_noun="restaurant")
            assert mention == "the restaurant in the north of the city"

    def test_attribute_falls_back_to_pairs(self):
        candidates = [
            Entity(domain="hotel", name="alpha lodge", attributes={"area": "north", "stars": "4"}),
            Entity(domain="hotel", name="briar manor", attributes={"area": "north", "stars": "3"}),
            Entity(domain="hotel", name="cedar suites", attributes={"area": "south", "stars": "4"}),
        ]
        mention = apply_addressing(candidates, [0], AddressingMethod.ATTRIBUTE, 0, domain_noun="hotel")
        assert "north" in mention and "4 stars" in mention and " and " in mention

    def test_attribute_no_discriminator(self):
        candidates = [
            Entity(domain="hotel", name="alpha lodge", attributes={"area": "north"}),
            Entity(domain="hotel", name="briar manor", attributes={"area": "north"}),
        ]
        with pytest.raises(NoDiscriminatingAttribute):
            apply_addressing(candidates, [0], AddressingMethod.ATTRIBUTE, 0, domain_noun="hotel")


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
                assert example.system_utterance.count(entity.name) == 1

    def test_unknown_domain(self, shipped_db, shipped_grammar):
        with pytest.raises(UnknownDomain):
            synthesize_example(shipped_db, shipped_grammar, "zeppelins", AddressingMethod.EXACT, 0)

    def test_small_table_rejected(self, shipped_grammar):
        db = Database(
            tables={"d": _entities("alpha kitchen", "briar manor", domain="d")},
            name_fields={"d": "name"},
        )
        with pytest.raises(NotEnoughEntities):
            synthesize_example(db, shipped_grammar, "d", AddressingMethod.EXACT, 0)

    def test_grammar_missing_start(self, shipped_db):
        from disambig.errors import UnknownStart
        from disambig.grammar import load_grammar

        incomplete = load_grammar("SYSTEM_QUESTION -> pick from {option_list}")
        with pytest.raises(UnknownStart) as info:
            synthesize_example(shipped_db, incomplete, "hotel", AddressingMethod.EXACT, 0)
        assert info.value.name == "USER_ANSWER"

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
        marker = gold.dialogs[0].turns[0].extras["disambig"]
        assert marker["origin"] == "synth"
        assert marker["target_names"] == examples[0].target_names()


def test_format_option_list():
    assert format_option_list(["a", "b", "c"]) == "a, b, or c"
    assert format_option_list(["a", "b", "c", "d"]) == "a, b, c, or d"
    assert format_option_list(["a"]) == "a"


def test_option_list_lands_verbatim_in_system_utterance(shipped_db, shipped_grammar):
    example = synthesize_example(shipped_db, shipped_grammar, "hotel", AddressingMethod.EXACT, 1)
    names = [e.name for e in example.candidates]
    assert format_option_list(names) in example.system_utterance
