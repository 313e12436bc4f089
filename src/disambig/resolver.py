"""Rule-based resolution of a user's choice against an option list.

Given the candidates a system just listed and the user's reply, find the
selected entity (or entities).  Evidence is tried in fixed priority order:
ordinal position, exact or partial name windows, fuzzy name matches within
an edit-distance budget, then attribute descriptions.  Everything here is
pure and reentrant; ties are surfaced through the ``ambiguous`` flag rather
than silently broken.

The name and attribute stages index the reply's token windows once per
call and look names and values up in that set.  The fuzzy stage joins each
window length's texts once per call and screens every pair by the
character-set bound before the cutoff DP of ``edit_distance`` runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import Entity
from .errors import NoMatch

ORDINAL = "ORDINAL"
EXACT_NAME = "EXACT_NAME"
FUZZY_NAME = "FUZZY_NAME"
ATTRIBUTE = "ATTRIBUTE"

DEFAULT_MAX_FUZZY = 0.25

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

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


def normalize(text: str) -> list[str]:
    """Lowercase, strip punctuation to word boundaries, whitespace-split."""
    return _TOKEN_RE.findall(text.lower())


def edit_distance(a: str, b: str, bound: int | None = None) -> int:
    """Optimal string alignment distance: Levenshtein with unit costs plus
    adjacent transpositions.

    With ``bound=k`` only the work that bound allows is done (Ukkonen's
    cutoff): the result is exact when the distance is at most ``k`` and
    above ``k`` otherwise.  Only the diagonal band ``|i - j| <= k`` is filled,
    cells are clipped at ``k + 1``, and the search stops once two consecutive
    rows are over the bound, since a transposition reaches back two rows.
    Without a bound the band covers the whole matrix, because the distance
    never exceeds the longer length.
    """
    if a == b:
        return 0
    len_b = len(b)
    k = max(len(a), len_b) if bound is None else bound
    over = k + 1
    if abs(len(a) - len_b) > k:
        return over
    previous2: list[int] = []
    previous = [j if j <= k else over for j in range(len_b + 1)]
    previous_min = 0
    for i, ca in enumerate(a, start=1):
        current = [over] * (len_b + 1)
        if i <= k:
            current[0] = i
        row_min = current[0]
        for j in range(max(1, i - k), min(len_b, i + k) + 1):
            cb = b[j - 1]
            value = previous[j - 1] if ca == cb else previous[j - 1] + 1
            if previous[j] < value:
                value = previous[j] + 1
            if current[j - 1] < value:
                value = current[j - 1] + 1
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb and previous2[j - 2] < value:
                value = previous2[j - 2] + 1
            if value > over:
                value = over
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > k and previous_min > k:
            return over
        previous2, previous, previous_min = previous, current, row_min
    return previous[-1]


@dataclass(frozen=True)
class Match:
    index: int
    score: float
    evidence: str


@dataclass(frozen=True)
class Resolution:
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


def _name_evidence(utterance: list[str], names: list[list[str]]) -> dict[int, float]:
    """Indices with exact or uniquely-identifying partial name windows.

    A name matches exactly when it is one of the reply's windows (a name
    with no tokens always does).  A reply window that is a proper
    sub-window of exactly one name, and not made only of stopwords, names
    that candidate.
    """
    spans = _spans(utterance, max((len(name) for name in names), default=0))
    matched = {index: 1.0 for index, name in enumerate(names) if tuple(name) in spans}
    owners: dict[tuple[str, ...], set[int]] = {}
    for index, name in enumerate(names):
        for window in _spans(name, len(name) - 1):
            owners.setdefault(window, set()).add(index)
    for window in spans:
        owner = owners.get(window)
        if owner is not None and len(owner) == 1 and not STOPWORDS.issuperset(window):
            matched.setdefault(next(iter(owner)), 1.0)
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


def _char_set_bound(a: set[str], b: set[str]) -> int:
    """A lower bound on the OSA distance of two strings with character sets
    ``a`` and ``b``.  Each character found in one string but not the other
    needs its own deletion, insertion or substitution, one edit serves at
    most one such character on each side, and a transposition changes
    neither set."""
    return max(len(a - b), len(b - a))


def _fuzzy_evidence(utterance: list[str], names: list[list[str]], max_fuzzy: float) -> dict[int, float]:
    """Names within an OSA-distance budget of some utterance window: the
    distance divided by the longer string must be at most ``max_fuzzy``.
    A pair whose character-set bound is over the budget skips the DP."""
    windows: dict[int, list[tuple[str, int, set[str]]]] = {}
    scored: dict[int, float] = {}
    for index, name in enumerate(names):
        name_text = " ".join(name)
        name_len = len(name_text)
        name_chars = set(name_text)
        best: float | None = None
        for length in range(max(1, len(name) - 1), len(name) + 2):
            if length not in windows:
                texts = (" ".join(utterance[start:start + length]) for start in range(len(utterance) - length + 1))
                windows[length] = [(text, len(text), set(text)) for text in texts]
            for window_text, window_len, window_chars in windows[length]:
                longer = max(window_len, name_len)
                if longer == 0 or abs(window_len - name_len) / longer > max_fuzzy:
                    continue
                k = _edit_budget(longer, max_fuzzy)
                if _char_set_bound(window_chars, name_chars) > k:
                    continue
                distance = edit_distance(window_text, name_text, bound=k)
                if distance <= k and (best is None or distance / longer < best):
                    best = distance / longer
        if best is not None:
            scored[index] = 1.0 - best
    return scored


def _attribute_evidence(utterance: list[str], candidates: list[Entity]) -> dict[int, float]:
    """Candidates by the fraction of their attribute values that are reply windows."""
    values = [[tuple(normalize(str(value))) for value in entity.attributes.values()] for entity in candidates]
    spans = _spans(utterance, max((len(value) for entity_values in values for value in entity_values), default=0))
    scored: dict[int, float] = {}
    for index, entity_values in enumerate(values):
        hits = sum(1 for value in entity_values if value and value in spans)
        if hits:
            scored[index] = hits / len(entity_values)
    return scored


def resolve(candidates: list[Entity], user_utterance: str, max_fuzzy: float = DEFAULT_MAX_FUZZY) -> Resolution:
    """Resolve the user's reply to candidate indices.

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

    names = [normalize(entity.name) for entity in candidates]
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


def predict_names(candidates: list[Entity], user_utterance: str, max_fuzzy: float = DEFAULT_MAX_FUZZY) -> list[str]:
    """Batch-mode prediction: the chosen entity names, empty on no match.

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
    return [candidates[m.index].name for m in selected]
