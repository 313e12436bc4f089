"""Rule-based resolution of a user's choice against an option list.

Given the candidates a system just listed, as entity rows (``corpus``'s
``{"domain", "name", "attributes"}``), and the user's reply, find the
selected entity (or entities).  Evidence is tried in fixed priority order:
ordinal position, exact or partial name windows, fuzzy name matches within
an edit-distance budget, then attribute descriptions.  Everything here is
pure and reentrant; ties are surfaced through the ``ambiguous`` flag rather
than silently broken.

Each distinct candidate name is indexed once per process (``_name_record``,
a bounded memo): its normalized tokens, joined text, character masks, and
its text and identifying proper sub-windows padded with one space on each
side.  The name and attribute stages join the reply's tokens once per call,
padded the same way, and find each padded name, sub-window and attribute
value in it by substring search.  No token holds a space, so a padded hit
is exactly a contiguous window of whole tokens.  The fuzzy stage builds
each reply window's text length and character masks (the characters it
holds at least once and at least twice, one bit each) from memoized token
masks, and screens every pair by length ratio and by ``_bag_bound``, a
lower bound on the bag distance (Bartolini, Ciaccia & Patella 2002) and so
on the edit distance.  Only a pair that passes has its window text joined
and goes to ``edit_distance``, the bit-parallel OSA recurrence with the
name as the pattern.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .corpus import normalize
from .errors import NoMatch

ORDINAL = "ORDINAL"
EXACT_NAME = "EXACT_NAME"
FUZZY_NAME = "FUZZY_NAME"
ATTRIBUTE = "ATTRIBUTE"

DEFAULT_MAX_FUZZY = 0.25

# Words that never identify a name on their own; partial-name evidence must
# contain at least one token outside this set.
STOPWORDS = frozenset(
    "the a an of in on at and or to one ones it this that these those".split()
)

_ORDINAL_POSITIONS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "1st": 1, "2nd": 2, "3rd": 3, "4th": 4, "5th": 5,
}

_CONJUNCTION_TOKENS = frozenset({"and", "both"})


@lru_cache(maxsize=4096)
def _pattern_masks(pattern: str) -> dict[str, int]:
    """For each character of ``pattern``, the bit mask of its positions."""
    masks: dict[str, int] = {}
    for position, char in enumerate(pattern):
        masks[char] = masks.get(char, 0) | 1 << position
    return masks


def edit_distance(a: str, b: str, bound: int | None = None) -> int:
    """Optimal string alignment distance: Levenshtein with unit costs plus
    adjacent transpositions.

    Computed bit-parallel (Hyyrö 2003, Myers' 1999 algorithm extended to
    transpositions): ``a`` is the pattern, one bit per character in a Python
    int, and each character of ``b`` is one column of word operations, so
    the cost is O(len(b)) whatever the length of ``a``.  The pattern masks
    of each distinct ``a`` are memoized.  With ``bound=k`` the result is
    exact when the distance is at most ``k`` and above ``k`` otherwise: the
    loop stops once the last row's value, less the columns still to come,
    is over ``k``, since each column lowers that value by at most one.
    """
    if a == b:
        return 0
    length, columns = len(a), len(b)
    k = max(length, columns) if bound is None else bound
    if abs(length - columns) > k:
        return k + 1
    if not length:
        return columns
    masks = _pattern_masks(a)
    full = (1 << length) - 1
    last = 1 << (length - 1)
    limit = k + columns
    positive, negative, zero, previous_match = full, 0, 0, 0
    score = length
    for column, char in enumerate(b, start=1):
        match = masks.get(char, 0)
        transposed = ((~zero & match) << 1) & previous_match
        zero = (((match & positive) + positive) ^ positive) | match | negative | transposed
        up = negative | ~(zero | positive)
        down = zero & positive
        if up & last:
            score += 1
        elif down & last:
            score -= 1
        if score + column > limit:
            return k + 1
        up = (up << 1) | 1
        positive = ((down << 1) | ~(zero | up)) & full
        negative = up & zero
        previous_match = match
    return score


class Match(NamedTuple):
    index: int
    score: float
    evidence: str


class Resolution(NamedTuple):
    matches: tuple[Match, ...]
    ambiguous: bool


def _spans(tokens: list[str], longest: int) -> set[tuple[str, ...]]:
    """Every contiguous window of ``tokens`` of at most ``longest`` tokens,
    the empty window included."""
    return {
        tuple(tokens[start:start + length])
        for length in range(min(longest, len(tokens)) + 1)
        for start in range(len(tokens) - length + 1)
    }


def _ordinal_positions(tokens: list[str], n_candidates: int) -> list[int] | None:
    """1-based positions mentioned by ordinal words, or None when no ordinal
    vocabulary appears.  'last' maps to the final option; 'the other' carries
    no elimination context here, so it matches nothing specific (all tie)."""
    positions: list[int] = []
    out_of_range = False
    the_other = False
    for i, token in enumerate(tokens):
        if token in _ORDINAL_POSITIONS:
            position = _ORDINAL_POSITIONS[token]
            if position <= n_candidates:
                if position not in positions:
                    positions.append(position)
            else:
                out_of_range = True
        elif token == "last":
            if n_candidates not in positions:
                positions.append(n_candidates)
        elif token == "other" and i > 0 and tokens[i - 1] == "the":
            the_other = True
    if positions:
        return positions
    if out_of_range:
        raise NoMatch("ordinal position exceeds the option list length")
    if the_other:
        return list(range(1, n_candidates + 1))
    return None


class _Name(NamedTuple):
    """What every stage needs of one candidate name, derived once."""

    tokens: tuple[str, ...]
    text: str
    once: int
    twice: int
    padded: str
    partials: frozenset[str]


# One bit per distinct character seen, assigned in order of first sight.
# The bound below compares masks made in one process, so no result depends
# on which bit a character got.
_CHAR_BITS: dict[str, int] = {}


@lru_cache(maxsize=4096)
def _char_masks(text: str) -> tuple[int, int]:
    """The bit masks of the characters that occur in ``text`` at least once
    and at least twice, memoized per distinct string."""
    once = twice = 0
    for char in text:
        bit = _CHAR_BITS.get(char)
        if bit is None:
            bit = _CHAR_BITS[char] = 1 << len(_CHAR_BITS)
        twice |= once & bit
        once |= bit
    return once, twice


def _padded(tokens) -> str:
    """``tokens`` joined with one space between and around them: ``a`` holds
    ``b`` as a substring exactly when ``b``'s tokens are a window of
    ``a``'s, since no token holds a space."""
    return f" {' '.join(tokens)} "


@lru_cache(maxsize=4096)
def _name_record(name: str) -> _Name:
    """The normalized tokens of ``name``, their joined text and its
    character masks, the padded text (a single space for a name with no
    tokens, which every reply holds), and the padded texts of the name's
    proper sub-windows not made only of stopwords, memoized per distinct
    name string."""
    tokens = normalize(name)
    text = " ".join(tokens)
    partials = frozenset(
        _padded(window) for window in _spans(tokens, len(tokens) - 1) if not STOPWORDS.issuperset(window)
    )
    return _Name(tuple(tokens), text, *_char_masks(text), _padded(tokens) if tokens else " ", partials)


def _name_evidence(utterance: list[str], names: list[_Name]) -> dict[int, float]:
    """Indices with exact or uniquely-identifying partial name windows.

    A name matches exactly when it is one of the reply's windows (a name
    with no tokens always does).  A reply window that is a proper
    sub-window of exactly one name, and not made only of stopwords, names
    that candidate.
    """
    reply = _padded(utterance)
    matched = {index: 1.0 for index, name in enumerate(names) if name.padded in reply}
    for index, name in enumerate(names):
        if index in matched:
            continue
        for window in name.partials:
            if window in reply and sum(window in other.partials for other in names) == 1:
                matched[index] = 1.0
                break
    return matched


def _edit_budget(longer: int, max_fuzzy: float) -> int:
    """The largest k in [0, longer] with ``k / longer <= max_fuzzy`` as a
    float comparison, or -1 when there is none (negative or NaN budgets).

    The product ``max_fuzzy * longer`` only seeds the search; the float
    division decides, so a distance passes exactly when it would pass the
    plain ``distance / longer <= max_fuzzy`` test.
    """
    if not max_fuzzy >= 0:
        return -1
    if max_fuzzy >= 1:
        return longer
    k = int(max_fuzzy * longer)
    while k < longer and (k + 1) / longer <= max_fuzzy:
        k += 1
    while k / longer > max_fuzzy:
        k -= 1
    return k


@lru_cache(maxsize=4096)
def _pair_budget(name_len: int, window_len: int, max_fuzzy: float) -> int:
    """The edit budget of a name and a reply window of these text lengths,
    or -1 when no distance can pass: the length ratio alone is over
    ``max_fuzzy``, or ``_edit_budget`` finds no k.  Memoized, since replies
    offer the same few lengths over and over."""
    longer = max(window_len, name_len)
    if abs(window_len - name_len) / longer > max_fuzzy:
        return -1
    return _edit_budget(longer, max_fuzzy)


def _bag_bound(once_a: int, twice_a: int, once_b: int, twice_b: int) -> int:
    """A lower bound on the OSA distance of two strings, from their
    ``_char_masks``.  Each side's excess counts the characters it holds at
    least once that the other lacks, plus those it holds at least twice that
    the other holds at most once: no more than the size of its multiset
    difference, the larger of which (the bag distance) no edit sequence can
    undercut.  One edit removes at most one character from each difference,
    and a transposition changes neither multiset."""
    return max(
        (once_a & ~once_b).bit_count() + (twice_a & ~twice_b).bit_count(),
        (once_b & ~once_a).bit_count() + (twice_b & ~twice_a).bit_count(),
    )


def _reply_windows(utterance: list[str], longest: int) -> list[dict[int, list[tuple[int, int, int]]]]:
    """The windows of ``utterance`` of 1 to ``longest`` tokens, without their
    text: at ``[length][text length]``, each window's ``(start, once, twice)``
    in ``_char_masks`` form.  A window is its one-token-shorter prefix plus
    one space and one token, so every mask comes from memoized token masks:
    a multiset union has at least once what either side has, and at least
    twice what either has twice or both have once."""
    space = _char_masks(" ")[0]
    tokens = [(len(token), *_char_masks(token)) for token in utterance]
    windows: list[dict[int, list[tuple[int, int, int]]]] = [{}]
    row = tokens
    for length in range(1, longest + 1):
        if length > 1:
            extended = []
            for start, (size, once, twice) in enumerate(row[:-1]):
                token_size, token_once, token_twice = tokens[start + length - 1]
                twice |= once & space
                once |= space
                extended.append((size + 1 + token_size, once | token_once, twice | token_twice | once & token_once))
            row = extended
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for start, (size, once, twice) in enumerate(row):
            groups.setdefault(size, []).append((start, once, twice))
        windows.append(groups)
    return windows


def _fuzzy_evidence(utterance: list[str], names: list[_Name], max_fuzzy: float) -> dict[int, float]:
    """Names within an OSA-distance budget of some utterance window: the
    distance divided by the longer string must be at most ``max_fuzzy``.

    The windows of each token count are grouped by text length, so the
    length-ratio test and the budget are looked up once per group in
    ``_pair_budget``.  A window's text is joined only for a pair whose
    ``_bag_bound`` is within the budget, and only such a pair reaches
    ``edit_distance``.
    """
    longest = min(len(utterance), max((len(name.tokens) for name in names), default=0) + 1)
    windows = _reply_windows(utterance, longest)
    scored: dict[int, float] = {}
    for index, name in enumerate(names):
        name_len = len(name.text)
        best: float | None = None
        for length in range(max(1, len(name.tokens) - 1), min(len(name.tokens) + 1, longest) + 1):
            for window_len, group in windows[length].items():
                k = _pair_budget(name_len, window_len, max_fuzzy)
                if k < 0:
                    continue
                longer = max(window_len, name_len)
                for start, once, twice in group:
                    if _bag_bound(once, twice, name.once, name.twice) > k:
                        continue
                    distance = edit_distance(name.text, " ".join(utterance[start:start + length]), bound=k)
                    if distance <= k and (best is None or distance / longer < best):
                        best = distance / longer
        if best is not None:
            scored[index] = 1.0 - best
    return scored


@lru_cache(maxsize=4096)
def _value_text(value: str) -> str:
    """The padded normalized tokens of an attribute value, or the empty
    string for a value with no tokens, memoized per distinct value."""
    tokens = normalize(value)
    return _padded(tokens) if tokens else ""


def _attribute_evidence(utterance: list[str], candidates: list[dict]) -> dict[int, float]:
    """Candidates by the fraction of their attribute values that are reply
    windows; a value with no tokens never counts."""
    reply = _padded(utterance)
    scored: dict[int, float] = {}
    for index, entity in enumerate(candidates):
        values = entity["attributes"].values()
        hits = sum(1 for value in values if (text := _value_text(str(value))) and text in reply)
        if hits:
            scored[index] = hits / len(values)
    return scored


def resolve(candidates: list[dict], user_utterance: str, max_fuzzy: float = DEFAULT_MAX_FUZZY) -> Resolution:
    """Resolve the user's reply to indices of ``candidates``, a list of entity rows.

    Raises NoMatch when no candidate clears any evidence level.  Permuting
    the candidate list permutes the returned indices accordingly, except for
    ordinal evidence, which is position-defined.
    """
    if not 1 <= len(candidates) <= 5:
        raise ValueError("resolve expects between 1 and 5 candidates")
    tokens = normalize(user_utterance)
    if not tokens:
        raise NoMatch("empty utterance")

    positions = _ordinal_positions(tokens, len(candidates))
    if positions is not None:
        matches = [Match(position - 1, 1.0, ORDINAL) for position in positions]
        return _finish(matches)

    names = [_name_record(entity["name"]) for entity in candidates]
    for evidence_kind, evidence in (
        (EXACT_NAME, lambda: _name_evidence(tokens, names)),
        (FUZZY_NAME, lambda: _fuzzy_evidence(tokens, names, max_fuzzy)),
        (ATTRIBUTE, lambda: _attribute_evidence(tokens, candidates)),
    ):
        scored = evidence()
        if scored:
            matches = [Match(index, score, evidence_kind) for index, score in scored.items()]
            return _finish(matches)
    raise NoMatch(f"no candidate matches {user_utterance!r}")


def _finish(matches: list[Match]) -> Resolution:
    ordered = sorted(matches, key=lambda m: (-m.score, m.index))
    ambiguous = len(ordered) >= 2 and ordered[0].score == ordered[1].score
    return Resolution(matches=tuple(ordered), ambiguous=ambiguous)


def has_conjunction(user_utterance: str) -> bool:
    tokens = normalize(user_utterance)
    if _CONJUNCTION_TOKENS & set(tokens):
        return True
    if "all" in tokens and any(t in tokens for t in ("three", "four", "five")):
        return True
    return "," in user_utterance


def predict_names(candidates: list[dict], user_utterance: str, max_fuzzy: float = DEFAULT_MAX_FUZZY) -> list[str]:
    """Batch-mode prediction: the names of the chosen entity rows, empty on no match.

    With a conjunction cue in the reply, every top-scoring candidate is
    selected (the user may have picked several); otherwise only the best.
    """
    try:
        resolution = resolve(candidates, user_utterance, max_fuzzy=max_fuzzy)
    except NoMatch:
        return []
    top = resolution.matches[0].score
    selected = [m for m in resolution.matches if m.score == top]
    if len(selected) > 1 and not has_conjunction(user_utterance):
        selected = [resolution.matches[0]]
    return [candidates[m.index]["name"] for m in selected]
