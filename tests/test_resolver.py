from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

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
from disambig.resolver import (
    _attribute_evidence,
    _bag_bound,
    _char_masks,
    _edit_budget,
    _fuzzy_evidence,
    _name_evidence,
    _name_record,
    _pair_budget,
    _reply_windows,
)

from .oracles import (
    _char_set_bound,
    slow_attribute_evidence,
    slow_edit_distance,
    slow_fuzzy_evidence,
    slow_name_evidence,
    slow_predict_names,
)


def _candidates(*names: str, domain: str = "restaurant") -> list[dict]:
    return [{"domain": domain, "name": name, "attributes": {}} for name in names]


def _records(names: list[list[str]]):
    """The stages' name records of drawn token lists (already normalized)."""
    records = [_name_record(" ".join(name)) for name in names]
    assert [list(record.tokens) for record in records] == names
    return records


class TestNormalize:
    def test_strips_punctuation_to_word_boundaries(self):
        assert normalize("Chiquito Restaurant Bar!") == ["chiquito", "restaurant", "bar"]

    def test_empty(self):
        assert normalize("") == []

    def test_lowercases(self):
        assert normalize("The SECOND one.") == ["the", "second", "one"]


# Strings longer than one 64-bit word, drawn either independently or a few
# edits apart, so that both the exact and the over-bound results of a
# multi-word pattern are reached.
@st.composite
def _long_pair(draw) -> tuple[str, str]:
    a = draw(st.text(alphabet="abc ", min_size=65, max_size=140))
    if draw(st.booleans()):
        return a, draw(st.text(alphabet="abc ", min_size=40, max_size=140))
    b = a
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(b)))
        swapped = b[:i] + b[i + 1:i + 2] + b[i:i + 1] + b[i + 2:]
        b = draw(st.sampled_from([b[:i] + "c" + b[i:], b[:i] + b[i + 1:], swapped]))
    return a, b


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


    @settings(max_examples=40)
    @given(_long_pair(), st.integers(0, 8))
    def test_patterns_longer_than_a_machine_word(self, pair, bound):
        a, b = pair
        exact = slow_edit_distance(a, b)
        assert edit_distance(a, b) == exact == edit_distance(b, a)
        bounded = edit_distance(a, b, bound=bound)
        assert bounded == exact if exact <= bound else bounded > bound

    @settings(max_examples=300)
    @given(st.text(alphabet="aé日😀ß ", max_size=9), st.text(alphabet="aé日😀ß ", max_size=9))
    def test_non_ascii_and_empty_strings(self, a, b):
        exact = slow_edit_distance(a, b)
        assert edit_distance(a, b) == exact == edit_distance(b, a)
        assert edit_distance(a, b, bound=0) == 0 if a == b else edit_distance(a, b, bound=0) > 0

    @settings(max_examples=300)
    @given(st.text(alphabet="abcd ", max_size=12), st.text(alphabet="abcd ", max_size=12), st.data())
    def test_bound_below_the_distance_returns_over_it(self, a, b, data):
        exact = slow_edit_distance(a, b)
        if exact == 0:
            assert edit_distance(a, b, bound=0) == 0
            return
        bound = data.draw(st.integers(0, exact - 1))
        assert edit_distance(a, b, bound=bound) > bound
        assert edit_distance(b, a, bound=bound) > bound
        assert edit_distance(a, b, bound=exact) == exact == edit_distance(b, a, bound=exact)


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


@st.composite
def _repeated_letter_case(draw) -> tuple[list[str], list[list[str]]]:
    """Names and a reply over a few letters, repeated within and across
    tokens, so pairs often share a character set and differ only in how
    many times a letter occurs; the reply mixes name tokens, edited names
    and other tokens."""
    token = st.text(alphabet="aaabbnné", min_size=1, max_size=5)
    names = draw(st.lists(st.lists(token, min_size=1, max_size=3), min_size=1, max_size=4))
    pool = [token for name in names for token in name]
    for name in names:
        pool += normalize(_one_edit(draw, " ".join(name)))
    return draw(st.lists(st.one_of(st.sampled_from(pool), token), min_size=1, max_size=7)), names


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
def _attribute_case(draw) -> tuple[list[str], list[dict]]:
    """1-5 candidates with attribute values that share tokens or span several,
    and a reply drawn from those values' tokens and filler words."""
    candidates = [
        {"domain": "hotel", "name": f"name {i}", "attributes": draw(st.dictionaries(
            st.sampled_from(["area", "price", "stars", "internet", "parking"]),
            st.sampled_from(_ATTRIBUTE_VALUES), max_size=4,
        ))}
        for i in range(draw(st.integers(1, 5)))
    ]
    pool = [token for value in _ATTRIBUTE_VALUES for token in normalize(value)] + _STOPWORD_VOCAB + ["with"]
    return draw(st.lists(st.sampled_from(pool), max_size=8)), candidates


class TestWindowStages:
    @settings(max_examples=500)
    @given(_name_case())
    def test_name_stage_agrees_with_rescanning_oracle(self, case):
        utterance, names = case
        assert _name_evidence(utterance, _records(names)) == slow_name_evidence(utterance, names)

    @pytest.mark.parametrize("utterance, names, expected", [
        (["the", "palm"], [["the", "palm"], ["the", "crown"]], {0: 1.0}),
        (["the", "of"], [["the", "palm", "of"], ["the", "crown"]], {}),
        (["alpha"], [["alpha", "kitchen"], ["alpha", "kitchen"]], {}),
        (["alpha", "kitchen"], [["alpha", "kitchen"], ["alpha", "kitchen"]], {0: 1.0, 1: 1.0}),
        (["zzz"], [[], ["alpha", "kitchen"]], {0: 1.0}),
        (["kitchen", "kitchen"], [["alpha", "kitchen"], ["briar", "manor"]], {0: 1.0}),
        # A name token inside a longer reply token is no window of the reply.
        (["martin"], [["art", "gallery"], ["briar", "manor"]], {}),
        (["martins", "gallery"], [["martin"], ["gallery", "one"]], {1: 1.0}),
        # A window that is another candidate's full name: exact for that
        # one, partial for the name it is a proper sub-window of.
        (["alpha"], [["alpha"], ["alpha", "kitchen"]], {0: 1.0, 1: 1.0}),
        # A name with no tokens is in every reply, and shares no window with another name.
        (["alpha"], [[], ["alpha", "kitchen"]], {0: 1.0, 1: 1.0}),
        # Stopword-only windows identify nothing, but a stopword-only name
        # still matches exactly.
        (["the", "one"], [["the", "one", "inn"], ["briar"]], {}),
        (["the", "one"], [["the", "one"], ["alpha", "the", "one"]], {0: 1.0}),
    ])
    def test_name_stage_edge_cases(self, utterance, names, expected):
        assert _name_evidence(utterance, _records(names)) == expected == slow_name_evidence(utterance, names)

    @settings(max_examples=500)
    @given(_attribute_case())
    def test_attribute_stage_agrees_with_rescanning_oracle(self, case):
        utterance, candidates = case
        assert _attribute_evidence(utterance, candidates) == slow_attribute_evidence(utterance, candidates)

    def test_multi_token_attribute_value(self):
        candidates = [
            {"domain": "hotel", "name": "alpha lodge", "attributes": {"parking": "free parking lot", "area": "?"}},
            {"domain": "hotel", "name": "briar manor", "attributes": {"parking": "free wifi"}},
        ]
        utterance = normalize("the one with free parking, lot please")
        assert _attribute_evidence(utterance, candidates) == {0: 0.5} == slow_attribute_evidence(utterance, candidates)

    @pytest.mark.parametrize("reply, first, second, expected", [
        # Value text that crosses a token boundary of the reply, or sits
        # inside a longer reply token, is no window of it.
        ("the north please", {"area": "h nor"}, {"area": "e north"}, {}),
        ("martin's place", {"area": "art"}, {"area": "martin s"}, {1: 1.0}),
        # The attribute stage has no stopword rule.
        ("the one", {"area": "the"}, {"area": "one", "price": "cheap"}, {0: 1.0, 1: 0.5}),
    ])
    def test_attribute_stage_edge_cases(self, reply, first, second, expected):
        candidates = [
            {"domain": "hotel", "name": "alpha lodge", "attributes": first},
            {"domain": "hotel", "name": "briar manor", "attributes": second},
        ]
        utterance = normalize(reply)
        assert _attribute_evidence(utterance, candidates) == expected == slow_attribute_evidence(utterance, candidates)

    @settings(max_examples=500)
    @given(st.text(alphabet="aaabbcé日 ", max_size=9), st.text(alphabet="aaabbcé日 ", max_size=9))
    def test_bag_bound_never_exceeds_distance(self, a, b):
        bound = _bag_bound(*_char_masks(a), *_char_masks(b))
        assert _char_set_bound(set(a), set(b)) <= bound <= slow_edit_distance(a, b)

    def test_bag_bound_counts_repeated_letters(self):
        # "aab" and "abb" share a character set, but each holds a letter
        # twice that the other holds once.
        assert _bag_bound(*_char_masks("aab"), *_char_masks("abb")) == 1 == slow_edit_distance("aab", "abb")
        assert _bag_bound(*_char_masks("aaa"), *_char_masks("a")) == 1 < slow_edit_distance("aaa", "a")

    @settings(max_examples=300)
    @given(st.lists(st.text(alphabet="aabé日", min_size=1, max_size=4), max_size=8), st.integers(0, 9))
    def test_window_masks_are_the_masks_of_the_joined_text(self, utterance, longest):
        longest = min(longest, len(utterance))
        windows = _reply_windows(utterance, longest)
        assert len(windows) == longest + 1
        for length in range(1, longest + 1):
            seen = []
            for text_len, group in windows[length].items():
                for start, once, twice in group:
                    text = " ".join(utterance[start:start + length])
                    assert (len(text), once, twice) == (text_len, *_char_masks(text))
                    seen.append(start)
            assert sorted(seen) == list(range(len(utterance) - length + 1))


class TestFuzzyEvidence:
    @settings(max_examples=500)
    @given(st.one_of(_confusable_case(), _repeated_letter_case()),
           st.one_of(st.sampled_from(_BUDGETS), st.floats(0, 1)))
    def test_bounded_agrees_with_full_distance_oracle(self, case, max_fuzzy):
        utterance, names = case
        fast = _fuzzy_evidence(utterance, _records(names), max_fuzzy)
        assert fast == slow_fuzzy_evidence(utterance, names, max_fuzzy)

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

    def test_budgets_outside_the_unit_interval_keep_a_bounded_memo(self):
        candidates = _candidates("glorious gardens", "marble brasserie", "willow eatery")
        reply = "glorius gardenz or the marbel one"
        utterance = normalize(reply)
        names = [normalize(entity["name"]) for entity in candidates]
        for max_fuzzy in (math.nan, float("nan"), -0.25, -math.inf, 1.0, 1.5, math.inf):
            expected = slow_fuzzy_evidence(utterance, names, max_fuzzy)
            assert _fuzzy_evidence(utterance, _records(names), max_fuzzy) == expected
            assert predict_names(candidates, reply, max_fuzzy) == slow_predict_names(candidates, reply, max_fuzzy)
        with pytest.raises(NoMatch):
            resolve(candidates, reply, max_fuzzy=float("nan"))
        # NaN equals nothing, so each NaN object is a memo key of its own.
        before = _pair_budget.cache_info()
        for _ in range(1000):
            assert predict_names(candidates, reply, max_fuzzy=float("nan")) == []
        after = _pair_budget.cache_info()
        assert after.misses - before.misses > after.maxsize
        assert after.currsize <= after.maxsize


# Name spellings that normalize to the same tokens, so one name reaches the
# memo under several keys.
_SPELLINGS = [str.lower, str.title, str.upper, lambda text: text.replace(" ", "-"), lambda text: f"{text}!"]
_CUES = ["and", "both", "first", "second", "last", "the", "other", "all", "three"]


@st.composite
def _resolver_call(draw) -> tuple[list[dict], str, float]:
    """Confusable candidates with attributes, a reply mixing name tokens (or
    one name with one edit), attribute values and ordinal or conjunction
    cues, and a budget."""
    utterance, names = draw(_confusable_case())
    if draw(st.booleans()):
        utterance = normalize(_one_edit(draw, " ".join(draw(st.sampled_from(names))))) or utterance
    candidates = [
        {"domain": "hotel", "name": draw(st.sampled_from(_SPELLINGS))(" ".join(name)),
         "attributes": draw(st.dictionaries(st.sampled_from(["area", "price", "stars", "parking"]),
                                            st.sampled_from(_ATTRIBUTE_VALUES), max_size=3))}
        for name in names
    ]
    pool = [token for value in _ATTRIBUTE_VALUES for token in normalize(value)] + _CUES
    for token in draw(st.lists(st.sampled_from(pool), max_size=3)):
        position = draw(st.integers(0, len(utterance)))
        utterance = utterance[:position] + [token] + utterance[position:]
    return candidates, draw(st.sampled_from([" ", ", "])).join(utterance), draw(st.sampled_from([0, 0.1, 0.25, 0.4, 1]))


class TestPredictNamesAgainstPreIndexOracle:
    @settings(max_examples=150)
    @given(st.lists(_resolver_call(), min_size=1, max_size=6), st.data())
    def test_agrees_in_any_call_order(self, calls, data):
        """A warm name memo never changes an answer: the calls run in a drawn
        order, then again in reverse, against the pre-index resolver."""
        expected = [slow_predict_names(*call) for call in calls]
        order = data.draw(st.permutations(range(len(calls))))
        for index in [*order, *reversed(order)]:
            assert predict_names(*calls[index]) == expected[index]


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
            {"domain": "restaurant", "name": "alpha kitchen", "attributes": {"area": "north", "price": "cheap"}},
            {"domain": "restaurant", "name": "briar manor", "attributes": {"area": "south", "price": "cheap"}},
            {"domain": "restaurant", "name": "cedar lodge", "attributes": {"area": "west", "price": "cheap"}},
        ]
        resolution = resolve(candidates, "the restaurant in the north of the city")
        assert resolution.matches[0].index == 0
        assert resolution.matches[0].evidence == ATTRIBUTE
        assert not resolution.ambiguous

    def test_attribute_score_is_fraction_matched(self):
        candidates = [
            {"domain": "hotel", "name": "alpha lodge", "attributes": {"area": "north", "stars": "4"}},
            {"domain": "hotel", "name": "briar manor", "attributes": {"area": "south", "stars": "2"}},
        ]
        resolution = resolve(candidates, "the one in the north with 4 stars")
        assert resolution.matches[0].index == 0
        assert resolution.matches[0].score == 1.0

    def test_shared_attribute_ties_are_ambiguous(self):
        candidates = [
            {"domain": "hotel", "name": "alpha lodge", "attributes": {"area": "north"}},
            {"domain": "hotel", "name": "briar manor", "attributes": {"area": "north"}},
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

    def test_reply_without_word_tokens_predicts_nothing(self):
        candidates = _candidates("alpha kitchen", "briar manor")
        with pytest.raises(NoMatch, match="empty utterance"):
            resolve(candidates, " ?! ... ")
        assert predict_names(candidates, " ?! ... ") == []

    def test_conjunction_detection(self):
        assert has_conjunction("a and b")
        assert has_conjunction("both of them")
        assert has_conjunction("I will take all three")
        assert not has_conjunction("all of it")
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
