from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from disambig.corpus import Entity
from disambig.errors import NoMatch
from disambig.resolver import (
    ATTRIBUTE,
    EXACT_NAME,
    FUZZY_NAME,
    ORDINAL,
    edit_distance,
    has_conjunction,
    normalize,
    predict_names,
    resolve,
)
from disambig.resolver import _attribute_evidence, _char_set_bound, _edit_budget, _fuzzy_evidence, _name_evidence

from .oracles import slow_attribute_evidence, slow_edit_distance, slow_fuzzy_evidence, slow_name_evidence


def _candidates(*names: str, domain: str = "restaurant") -> list[Entity]:
    return [Entity(domain=domain, name=name) for name in names]


class TestNormalize:
    def test_strips_punctuation_to_word_boundaries(self):
        assert normalize("Chiquito Restaurant Bar!") == ["chiquito", "restaurant", "bar"]

    def test_empty(self):
        assert normalize("") == []

    def test_lowercases(self):
        assert normalize("The SECOND one.") == ["the", "second", "one"]


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_single_deletion(self):
        assert edit_distance("restauraant", "restaurant") == 1

    def test_adjacent_transposition_counts_once(self):
        assert edit_distance("hte palm", "the palm") == 1

    def test_empty_strings(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("", "") == 0

    @given(st.text(alphabet="abcde ", max_size=8), st.text(alphabet="abcde ", max_size=8))
    def test_agrees_with_recursive_oracle(self, a, b):
        assert edit_distance(a, b) == slow_edit_distance(a, b)

    @given(st.text(alphabet="abcdef", max_size=10), st.text(alphabet="abcdef", max_size=10))
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    def test_length_gap_over_bound_returns_at_once(self):
        assert edit_distance("abc", "abcdefgh", bound=2) > 2
        assert edit_distance("abc", "abcdefgh", bound=5) == 5

    @settings(max_examples=300)
    @given(st.text(alphabet="abc ", max_size=10), st.text(alphabet="abc ", max_size=10), st.integers(0, 12))
    def test_bounded_agrees_with_recursive_oracle(self, a, b, bound):
        exact = slow_edit_distance(a, b)
        bounded = edit_distance(a, b, bound=bound)
        if exact <= bound:
            assert bounded == exact
        else:
            assert bounded > bound


_VOCAB = ["alpha", "kitchen", "briar", "manor", "cedar", "lodge", "the", "north", "inn", "ab"]

# Float budgets whose products with a length land on or near an integer, and
# budgets outside [0, 1] that the library function must also survive.
_BUDGETS = [0.25, 0.1, 1 / 3, 0.2 + 0.05, 0.0, 1.0, 0.3, 2 / 7, math.nan, math.inf, -0.25, 1.5]


def _one_edit(draw, text: str) -> str:
    i = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from("abcdeiklnort"))
    return draw(st.sampled_from([
        text[:i] + c + text[i:],
        text[:i] + text[i + 1:],
        text[:i] + c + text[i + 1:],
        text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:],
    ]))


@st.composite
def _confusable_case(draw) -> tuple[list[str], list[list[str]]]:
    """An utterance and 1-4 names that share tokens or differ by one edit."""
    base = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=3))
    names = [base]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            names.append(normalize(_one_edit(draw, " ".join(base))) or ["x"])
        else:
            names.append(draw(st.lists(st.sampled_from(base + _VOCAB), min_size=1, max_size=3)))
    typo = normalize(_one_edit(draw, " ".join(draw(st.sampled_from(names)))))
    pool = _VOCAB + [token for name in names for token in name] + typo
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)), names


_STOPWORD_VOCAB = ["the", "of", "a", "one", "in"]


@st.composite
def _name_case(draw) -> tuple[list[str], list[list[str]]]:
    """A confusable case plus the name stage's edge cases: a copy of another
    name, a name with no tokens, a name of stopwords only, and stopwords and
    repeated tokens spliced into the reply."""
    utterance, names = draw(_confusable_case())
    if draw(st.booleans()):
        names.append(list(draw(st.sampled_from(names))))
    if draw(st.booleans()):
        names.append([])
    if draw(st.booleans()):
        names.append(draw(st.lists(st.sampled_from(_STOPWORD_VOCAB), min_size=1, max_size=2)))
    names = draw(st.permutations(names))
    for token in draw(st.lists(st.sampled_from(utterance + _STOPWORD_VOCAB), max_size=4)):
        position = draw(st.integers(0, len(utterance)))
        utterance = utterance[:position] + [token] + utterance[position:]
    return utterance, names


# Attribute values of one to three tokens, with punctuation, case and a value
# that normalizes to no tokens at all.
_ATTRIBUTE_VALUES = ["north", "cheap", "4", "4 stars", "free wifi", "the north", "guest house",
                     "Wi-Fi", "North!", "free parking lot", "?", "cheap 4"]


@st.composite
def _attribute_case(draw) -> tuple[list[str], list[Entity]]:
    """1-5 candidates with attribute values that share tokens or span several,
    and a reply drawn from those values' tokens and filler words."""
    candidates = [
        Entity(domain="hotel", name=f"name {i}", attributes=draw(st.dictionaries(
            st.sampled_from(["area", "price", "stars", "internet", "parking"]),
            st.sampled_from(_ATTRIBUTE_VALUES), max_size=4,
        )))
        for i in range(draw(st.integers(1, 5)))
    ]
    pool = [token for value in _ATTRIBUTE_VALUES for token in normalize(value)] + _STOPWORD_VOCAB + ["with"]
    return draw(st.lists(st.sampled_from(pool), max_size=8)), candidates


class TestWindowStages:
    @settings(max_examples=500)
    @given(_name_case())
    def test_name_stage_agrees_with_rescanning_oracle(self, case):
        utterance, names = case
        assert _name_evidence(utterance, names) == slow_name_evidence(utterance, names)

    @pytest.mark.parametrize("utterance, names, expected", [
        (["the", "palm"], [["the", "palm"], ["the", "crown"]], {0: 1.0}),
        (["the", "of"], [["the", "palm", "of"], ["the", "crown"]], {}),
        (["alpha"], [["alpha", "kitchen"], ["alpha", "kitchen"]], {}),
        (["alpha", "kitchen"], [["alpha", "kitchen"], ["alpha", "kitchen"]], {0: 1.0, 1: 1.0}),
        (["zzz"], [[], ["alpha", "kitchen"]], {0: 1.0}),
        (["kitchen", "kitchen"], [["alpha", "kitchen"], ["briar", "manor"]], {0: 1.0}),
    ])
    def test_name_stage_edge_cases(self, utterance, names, expected):
        assert _name_evidence(utterance, names) == expected == slow_name_evidence(utterance, names)

    @settings(max_examples=500)
    @given(_attribute_case())
    def test_attribute_stage_agrees_with_rescanning_oracle(self, case):
        utterance, candidates = case
        assert _attribute_evidence(utterance, candidates) == slow_attribute_evidence(utterance, candidates)

    def test_multi_token_attribute_value(self):
        candidates = [
            Entity(domain="hotel", name="alpha lodge", attributes={"parking": "free parking lot", "area": "?"}),
            Entity(domain="hotel", name="briar manor", attributes={"parking": "free wifi"}),
        ]
        utterance = normalize("the one with free parking, lot please")
        assert _attribute_evidence(utterance, candidates) == {0: 0.5} == slow_attribute_evidence(utterance, candidates)

    @settings(max_examples=500)
    @given(st.text(alphabet="abcde ", max_size=9), st.text(alphabet="abcde ", max_size=9))
    def test_char_set_bound_never_exceeds_distance(self, a, b):
        assert _char_set_bound(set(a), set(b)) <= slow_edit_distance(a, b)


class TestFuzzyEvidence:
    @settings(max_examples=300)
    @given(_confusable_case(), st.one_of(st.sampled_from(_BUDGETS), st.floats(0, 1)))
    def test_bounded_agrees_with_full_distance_oracle(self, case, max_fuzzy):
        utterance, names = case
        assert _fuzzy_evidence(utterance, names, max_fuzzy) == slow_fuzzy_evidence(utterance, names, max_fuzzy)

    def test_budget_is_the_largest_passing_distance(self):
        # Exhaustive over every exact ratio n / longer and its float
        # neighbours, where ``int(max_fuzzy * longer)`` alone can be one short.
        for longer in range(1, 201):
            for budget in [*_BUDGETS, *(n / longer for n in range(longer + 1))]:
                for max_fuzzy in (math.nextafter(budget, -math.inf), budget, math.nextafter(budget, math.inf)):
                    k = _edit_budget(longer, max_fuzzy)
                    if not max_fuzzy >= 0:
                        assert k == -1
                        continue
                    assert 0 <= k <= longer
                    assert k / longer <= max_fuzzy
                    assert k == longer or (k + 1) / longer > max_fuzzy, (longer, max_fuzzy)

    @pytest.mark.parametrize("max_fuzzy, expected", [
        (math.nan, []), (-1.0, []), (math.inf, ["glorious gardens"]), (5.0, ["glorious gardens"]),
    ])
    def test_any_float_budget_is_safe(self, max_fuzzy, expected):
        candidates = _candidates("glorious gardens", "marble brasserie", "willow eatery")
        assert predict_names(candidates, "glorius gardenz", max_fuzzy=max_fuzzy) == expected


class TestResolveOrdinal:
    def test_the_second_one(self):
        resolution = resolve(_candidates("alpha kitchen", "briar manor", "cedar lodge"), "the second one")
        assert resolution.matches[0].index == 1
        assert resolution.matches[0].evidence == ORDINAL
        assert not resolution.ambiguous

    def test_digit_form_and_last(self):
        candidates = _candidates("alpha kitchen", "briar manor", "cedar lodge")
        assert resolve(candidates, "the 3rd one").matches[0].index == 2
        assert resolve(candidates, "the last one").matches[0].index == 2

    def test_ordinal_beyond_length_is_no_match(self):
        with pytest.raises(NoMatch):
            resolve(_candidates("alpha kitchen", "briar manor"), "the fifth one")

    def test_the_other_is_surfaced_as_ambiguous(self):
        resolution = resolve(_candidates("alpha kitchen", "briar manor"), "the other one")
        assert resolution.ambiguous
        assert {m.index for m in resolution.matches} == {0, 1}

    def test_ordinal_outranks_name(self):
        resolution = resolve(_candidates("alpha kitchen", "briar manor"), "the first one, not briar manor")
        assert resolution.matches[0].index == 0


class TestResolveNames:
    def test_exact_full_name(self):
        resolution = resolve(_candidates("alpha kitchen", "briar manor"), "i want alpha kitchen please")
        assert resolution.matches[0].index == 0
        assert resolution.matches[0].evidence == EXACT_NAME
        assert not resolution.ambiguous

    def test_partial_chiquito(self):
        candidates = _candidates("chiquito restauraant bar", "copper kettle", "mill house tavern")
        resolution = resolve(candidates, "chiquito")
        assert resolution.matches[0].index == 0
        assert resolution.matches[0].evidence == EXACT_NAME

    def test_stopword_window_never_identifies(self):
        candidates = _candidates("the palm", "copper kettle")
        resolution = resolve(candidates, "i will take the palm")
        assert resolution.matches[0].index == 0
        with pytest.raises(NoMatch):
            resolve(_candidates("the palm", "the crown"), "the")

    def test_typo_resolved_by_fuzzy(self):
        candidates = _candidates("glorious gardens", "marble brasserie", "willow eatery")
        resolution = resolve(candidates, "let's do glorious gardenz")
        assert resolution.matches[0].index == 0

    def test_fuzzy_threshold_rejects_distant_strings(self):
        with pytest.raises(NoMatch):
            resolve(_candidates("alpha kitchen", "briar manor"), "zzzzzz qqqqq")

    def test_ambiguous_tie_ordered_by_position(self):
        candidates = _candidates("north lodge annex", "north lodge annexe")
        # both names contain the unique-enough window "north lodge", so the
        # full-name window of candidate 0 is also a window of candidate 1's name
        resolution = resolve(candidates, "north lodge annex")
        assert resolution.matches[0].index == 0


class TestResolveAttributes:
    def test_paper_north_example(self):
        candidates = [
            Entity(domain="restaurant", name="alpha kitchen", attributes={"area": "north", "price": "cheap"}),
            Entity(domain="restaurant", name="briar manor", attributes={"area": "south", "price": "cheap"}),
            Entity(domain="restaurant", name="cedar lodge", attributes={"area": "west", "price": "cheap"}),
        ]
        resolution = resolve(candidates, "the restaurant in the north of the city")
        assert resolution.matches[0].index == 0
        assert resolution.matches[0].evidence == ATTRIBUTE
        assert not resolution.ambiguous

    def test_attribute_score_is_fraction_matched(self):
        candidates = [
            Entity(domain="hotel", name="alpha lodge", attributes={"area": "north", "stars": "4"}),
            Entity(domain="hotel", name="briar manor", attributes={"area": "south", "stars": "2"}),
        ]
        resolution = resolve(candidates, "the one in the north with 4 stars")
        assert resolution.matches[0].index == 0
        assert resolution.matches[0].score == 1.0

    def test_shared_attribute_ties_are_ambiguous(self):
        candidates = [
            Entity(domain="hotel", name="alpha lodge", attributes={"area": "north"}),
            Entity(domain="hotel", name="briar manor", attributes={"area": "north"}),
        ]
        resolution = resolve(candidates, "the one in the north")
        assert resolution.ambiguous


class TestMultiple:
    def test_conjoined_exact_names(self):
        candidates = _candidates("alpha kitchen", "briar manor", "cedar lodge")
        names = predict_names(candidates, "i will take alpha kitchen and cedar lodge please")
        assert names == ["alpha kitchen", "cedar lodge"]

    def test_both_keyword(self):
        candidates = _candidates("alpha kitchen", "briar manor", "cedar lodge")
        names = predict_names(candidates, "both briar manor and cedar lodge sound good")
        assert names == ["briar manor", "cedar lodge"]

    def test_single_choice_with_comma_stays_single(self):
        candidates = _candidates("alpha kitchen", "briar manor")
        assert predict_names(candidates, "yes, alpha kitchen please") == ["alpha kitchen"]

    def test_no_match_returns_empty(self):
        assert predict_names(_candidates("alpha kitchen"), "qqq zzz") == []

    def test_conjunction_detection(self):
        assert has_conjunction("a and b")
        assert has_conjunction("both of them")
        assert not has_conjunction("just one thing")


class TestProperties:
    @given(st.permutations(["alpha kitchen", "briar manor", "cedar lodge", "dune terrace"]))
    def test_permutation_equivariance(self, names):
        target = "briar manor"
        resolution = resolve(_candidates(*names), f"i choose {target} please")
        assert names[resolution.matches[0].index] == target

    def test_resolve_is_pure(self):
        candidates = _candidates("alpha kitchen", "briar manor")
        utterance = "alpha kitchen please"
        assert resolve(candidates, utterance) == resolve(candidates, utterance)

    def test_candidate_count_bounds(self):
        with pytest.raises(ValueError):
            resolve([], "anything")
        with pytest.raises(ValueError):
            resolve(_candidates(*[f"name {i} x" for i in range(6)]), "name 1 x")
