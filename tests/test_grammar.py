from __future__ import annotations

import gc
import re

import pytest
from hypothesis import given, strategies as st

from disambig.errors import GrammarError
from disambig.grammar import (
    Slot,
    count_language,
    fill,
    load_grammar,
    sample,
    slot_bounds,
)

from .oracles import enumerate_templates, slow_sample, template_in_language


def _slot_names(tokens: tuple) -> list[str]:
    return [t.name for t in tokens if isinstance(t, Slot)]


VERBING_GRAMMAR = """
SENT -> do you mind VERBING
VERBING -> being a bit more precise | choosing one of them
"""


class TestLoad:
    def test_smallest_two_string_grammar(self):
        grammar = load_grammar("S -> a | b")
        assert set(grammar.rules) == {"S"}
        assert len(grammar.rules["S"]) == 2
        assert grammar.start_symbols == ("S",)

    def test_verbing_rule_parses(self):
        grammar = load_grammar(VERBING_GRAMMAR)
        assert ("do", "you", "mind") == grammar.rules["SENT"][0][:3]
        assert grammar.rules["SENT"][0][3].name == "VERBING"

    def test_self_reference_is_cyclic(self):
        with pytest.raises(GrammarError, match=r"^cycle in nonterminal graph: S -> S$"):
            load_grammar("S -> S a")

    def test_longer_cycle_reports_path(self):
        with pytest.raises(GrammarError, match="^cycle in nonterminal graph: ") as info:
            load_grammar("A -> B\nB -> C\nC -> A")
        cycle = str(info.value).removeprefix("cycle in nonterminal graph: ").split(" -> ")
        assert cycle[0] == cycle[-1] and sorted(cycle[1:]) == ["A", "B", "C"]

    def test_undefined_nonterminal(self):
        with pytest.raises(GrammarError, match=r"^nonterminal 'MISSING' has no rule \(referenced from S\)$"):
            load_grammar("S -> a MISSING")

    def test_duplicate_start_symbol(self):
        with pytest.raises(GrammarError, match="^start symbol 'S' declared more than once$"):
            load_grammar("%start S\n%start S\nS -> a")

    def test_unknown_start_symbol(self):
        with pytest.raises(GrammarError, match=r"^nonterminal 'T' has no rule \(referenced from %start\)$"):
            load_grammar("%start T\nS -> a")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(GrammarError, match="^line 2: expected 'LHS -> alternatives'$"):
            load_grammar("S -> a\nnot a rule")

    def test_empty_alternative_rejected(self):
        with pytest.raises(GrammarError, match=r"^line 1: empty alternative \(write"):
            load_grammar("S -> a |")

    @pytest.mark.parametrize("source, line_no, message", [
        ("%begin S\nS -> a", 1, "unknown directive '%begin S'"),
        ("%start\nS -> a", 1, "unknown directive '%start'"),
        ("S -> a\ns -> b", 2, "left-hand side 's' is not an UPPERCASE nonterminal"),
    ])
    def test_bad_directive_or_left_hand_side_rejected(self, source, line_no, message):
        with pytest.raises(GrammarError, match=f"^line {line_no}: {re.escape(message)}$"):
            load_grammar(source)

    def test_empty_source_rejected(self):
        with pytest.raises(GrammarError, match="^line 0: grammar declares no rules$"):
            load_grammar("   \n  # only a comment\n")

    def test_comments_and_blank_lines_ignored(self):
        grammar = load_grammar("# heading\n\nS -> a  # trailing\n")
        assert grammar.rules["S"] == (("a",),)

    def test_slot_token_with_attached_punctuation(self):
        grammar = load_grammar("S -> choice: {option_list}.")
        slot = grammar.rules["S"][0][1]
        assert slot == Slot("option_list", prefix="", suffix=".")


class TestSample:
    def test_single_derivation(self):
        grammar = load_grammar("S -> a")
        for seed in (0, 1, 99):
            assert sample(grammar, "S", seed) == ("a",)

    def test_pure_function_of_inputs(self):
        grammar = load_grammar(VERBING_GRAMMAR)
        assert sample(grammar, "SENT", 7) == sample(grammar, "SENT", 7)

    def test_both_alternatives_reachable_over_100_seeds(self):
        # exhaustive sampling oracle: with 100 seeds over 2 alternatives,
        # both must occur
        grammar = load_grammar("S -> a | b")
        seen = {sample(grammar, "S", seed) for seed in range(100)}
        assert seen == {("a",), ("b",)}

    def test_unknown_start(self):
        grammar = load_grammar("S -> a")
        with pytest.raises(GrammarError, match="^unknown start symbol or rule name 'T'$"):
            sample(grammar, "T", 0)

    def test_sampling_from_inner_rule_allowed(self):
        grammar = load_grammar(VERBING_GRAMMAR)
        tokens = sample(grammar, "VERBING", 3)
        assert template_in_language(grammar, "VERBING", tokens)

    def test_shipped_system_question_has_one_option_list(self, shipped_grammar):
        for seed in range(1000):
            assert _slot_names(sample(shipped_grammar, "SYSTEM_QUESTION", seed)).count("option_list") == 1

    def test_shipped_user_answer_has_one_mention(self, shipped_grammar):
        for seed in range(500):
            assert _slot_names(sample(shipped_grammar, "USER_ANSWER", seed)).count("mention") == 1

    def test_equals_the_recursive_sampler_on_the_shipped_grammar(self, shipped_grammar):
        for start in shipped_grammar.start_symbols:
            for seed in range(3000):
                assert sample(shipped_grammar, start, seed) == slow_sample(shipped_grammar, start, seed)

    def test_leaves_no_reference_cycle(self, shipped_grammar):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            starts = shipped_grammar.start_symbols
            for seed in range(1000):
                sample(shipped_grammar, starts[seed % len(starts)], seed)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_sampled_templates_are_in_the_language(self, shipped_grammar):
        small = load_grammar(VERBING_GRAMMAR)
        for seed in range(50):
            assert template_in_language(small, "SENT", sample(small, "SENT", seed))
        for seed in range(25):
            assert template_in_language(shipped_grammar, "USER_ANSWER", sample(shipped_grammar, "USER_ANSWER", seed))


class TestCount:
    def test_two_alternatives(self):
        assert count_language(load_grammar("S -> a | b"), "S") == 2

    def test_product_over_positions(self):
        grammar = load_grammar("S -> A B\nA -> a | b | c\nB -> x | y")
        assert count_language(grammar, "S") == 6

    def test_count_matches_enumeration_on_small_grammars(self):
        sources = [
            "S -> a | b",
            "S -> A B\nA -> a | b | c\nB -> x | y | z",
            "S -> A A2\nA -> p | q\nA2 -> B C | C B\nB -> u | v\nC -> w",
            VERBING_GRAMMAR,
        ]
        for source in sources:
            grammar = load_grammar(source)
            start = grammar.start_symbols[0]
            assert count_language(grammar, start) == len(set(enumerate_templates(grammar, start)))

    def test_unknown_start(self):
        with pytest.raises(GrammarError, match="^unknown start symbol or rule name 'T'$"):
            count_language(load_grammar("S -> a"), "T")

    def test_shipped_capacity_floors(self, shipped_grammar):
        assert count_language(shipped_grammar, "SYSTEM_QUESTION") >= 2_000_000
        assert count_language(shipped_grammar, "USER_ANSWER") >= 30_000


@st.composite
def acyclic_grammars(draw, slots: bool = False):
    """Layered random grammars with distinct leaf terminals per alternative,
    so derivations map one-to-one onto strings and stay below ~10k; with
    ``slots``, alternatives also hold slots {a} and {b}."""
    n_layers = draw(st.integers(min_value=1, max_value=3))
    lines = []
    previous: list[str] = []
    counter = 0
    for layer in range(n_layers):
        layer_names = []
        for r in range(draw(st.integers(min_value=1, max_value=2))):
            name = f"L{layer}R{r}"
            n_alts = draw(st.integers(min_value=1, max_value=3))
            alts = []
            for _ in range(n_alts):
                counter += 1
                symbols = [f"t{counter}"]
                if previous:
                    refs = draw(st.lists(st.sampled_from(previous), min_size=0, max_size=2))
                    symbols.extend(refs)
                if slots:
                    symbols.extend(draw(st.lists(st.sampled_from(["{a}", "{b}"]), max_size=2)))
                alts.append(" ".join(symbols))
            lines.append(f"{name} -> " + " | ".join(alts))
            layer_names.append(name)
        previous = layer_names
    return load_grammar("\n".join(lines)), previous[-1]


class TestCountProperty:
    @given(acyclic_grammars())
    def test_count_equals_enumeration(self, grammar_and_start):
        grammar, start = grammar_and_start
        templates = enumerate_templates(grammar, start)
        assert count_language(grammar, start) == len(set(templates))

    @given(acyclic_grammars(), st.integers(min_value=0, max_value=2**32))
    def test_samples_are_members(self, grammar_and_start, seed):
        grammar, start = grammar_and_start
        tokens = sample(grammar, start, seed)
        assert template_in_language(grammar, start, tokens)
        assert tokens == slow_sample(grammar, start, seed)


class TestSlotBounds:
    def test_shipped_bounds(self, shipped_grammar):
        assert {start: slot_bounds(shipped_grammar, start) for start in shipped_grammar.start_symbols} == {
            "SYSTEM_QUESTION": {"option_list": (1, 1), "entity_type": (0, 1)},
            "USER_ANSWER": {"mention": (1, 1)},
            "ATTRIBUTE_MENTION": {"domain_noun": (1, 1), "attribute_phrase": (1, 1)},
        }

    def test_least_and_greatest_over_alternatives(self):
        grammar = load_grammar("S -> A {x} | b\nA -> {x} {y} | c")
        assert slot_bounds(grammar, "S") == {"x": (0, 2), "y": (0, 1)}

    def test_unknown_start(self):
        with pytest.raises(GrammarError, match="^unknown start symbol or rule name 'T'$"):
            slot_bounds(load_grammar("S -> a"), "T")

    @given(acyclic_grammars(slots=True))
    def test_bounds_equal_enumeration(self, grammar_and_start):
        grammar, start = grammar_and_start
        counts = [[_slot_names(tokens).count(slot) for tokens in enumerate_templates(grammar, start)]
                  for slot in ("a", "b")]
        expected = {slot: (min(c), max(c)) for slot, c in zip(("a", "b"), counts) if max(c)}
        assert slot_bounds(grammar, start) == expected


def test_a_deep_grammar_is_walked_without_recursion():
    # Deeper than the interpreter's recursion limit, as a chain of rules.
    source = "\n".join([f"R{i} -> w R{i + 1}" for i in range(5000)] + ["R5000 -> {x} | y"])
    grammar = load_grammar(source)
    assert count_language(grammar, "R0") == 2
    assert slot_bounds(grammar, "R0") == {"x": (0, 1)}


def test_fill_paper_examples():
    tokens = ("hello", Slot("NAME"))
    assert fill(tokens, {"NAME": "alice"}) == "hello alice"

    option_tokens = ("your", "options:", Slot("OPTION_LIST"))
    assert "a, b, or c" in fill(option_tokens, {"OPTION_LIST": "a, b, or c"})

    with pytest.raises(GrammarError, match="^no binding for slot 'NAME'$"):
        fill(tokens, {})


def test_fill_ignores_extra_bindings():
    assert fill(("hi", Slot("A")), {"A": "x", "B": "y"}) == "hi x"
