"""Independent reference implementations used to check the fast paths.

These deliberately use different algorithms from the library: exhaustive
enumeration instead of arithmetic counting, memoized recursion instead of
the distance matrix, and a derivability search instead of trusting the
sampler.  Keep them slow and obvious.
"""

from __future__ import annotations

from functools import lru_cache

from disambig.grammar import Grammar, Nonterminal, Template


def enumerate_templates(grammar: Grammar, start: str, cap: int = 20_000) -> list[tuple]:
    """Every derivable token sequence from ``start``, by brute force."""
    memo: dict[str, list[tuple]] = {}

    def expand(name: str) -> list[tuple]:
        if name in memo:
            return memo[name]
        sequences: list[tuple] = []
        for alternative in grammar.rules[name]:
            partial: list[tuple] = [()]
            for symbol in alternative:
                suffixes = expand(symbol.name) if isinstance(symbol, Nonterminal) else [(symbol,)]
                partial = [p + s for p in partial for s in suffixes]
                if len(partial) > cap:
                    raise AssertionError(f"enumeration blew past {cap} sequences")
            sequences.extend(partial)
        memo[name] = sequences
        return sequences

    return expand(start)


def derivable(grammar: Grammar, start: str, tokens: tuple) -> bool:
    """Recursive membership test for a token sequence on an acyclic grammar."""

    @lru_cache(maxsize=None)
    def matches(symbols: tuple, remaining: tuple) -> bool:
        if not symbols:
            return not remaining
        head, *rest = symbols
        rest = tuple(rest)
        if isinstance(head, Nonterminal):
            return any(matches(alt + rest, remaining) for alt in grammar.rules[head.name])
        return bool(remaining) and remaining[0] == head and matches(rest, remaining[1:])

    return matches((Nonterminal(start),), tuple(tokens))


def template_in_language(grammar: Grammar, template: Template) -> bool:
    assert template.source_start is not None
    return derivable(grammar, template.source_start, template.tokens)


def slow_edit_distance(a: str, b: str) -> int:
    """Plain recursive Damerau-Levenshtein (restricted), memoized."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        best = min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )
        if i >= 2 and j >= 2 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, go(i - 2, j - 2) + 1)
        return best

    return go(len(a), len(b))


def slow_fuzzy_evidence(utterance: list[str], names: list[list[str]], max_fuzzy: float) -> dict[int, float]:
    """The fuzzy-name stage with the full distance for every pair: for each
    name, one minus the smallest ``distance / longer`` over utterance windows
    of one token fewer to one token more, among those at most ``max_fuzzy``."""
    scored: dict[int, float] = {}
    for index, name in enumerate(names):
        name_text = " ".join(name)
        best: float | None = None
        for length in range(max(1, len(name) - 1), len(name) + 2):
            for start in range(len(utterance) - length + 1):
                window_text = " ".join(utterance[start:start + length])
                longer = max(len(window_text), len(name_text))
                if longer == 0 or abs(len(window_text) - len(name_text)) / longer > max_fuzzy:
                    continue
                distance = slow_edit_distance(window_text, name_text) / longer
                if distance <= max_fuzzy and (best is None or distance < best):
                    best = distance
        if best is not None:
            scored[index] = 1.0 - best
    return scored
