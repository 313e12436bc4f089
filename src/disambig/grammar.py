"""Acyclic context-free grammars whose terminals may include slot placeholders.

Grammar source format, one rule per line::

    %start SYSTEM_QUESTION
    SYSTEM_QUESTION -> SQ_FOUND SQ_LIST
    SQ_LIST -> your options are {option_list}. | the candidates are {option_list}.

``LHS -> alt | alt`` rewrites an ALL-UPPERCASE nonterminal into one of its
alternatives.  Within an alternative, ALL-UPPERCASE tokens reference other
nonterminals, ``{braced}`` tokens are typed slot placeholders (punctuation
written around the braces stays attached and survives filling), and every
other token is a literal word, so punctuation belongs to the word it is
written against.  ``#`` starts a comment, ``%start NAME`` declares a
sampling entry point, and repeated ``LHS ->`` lines append alternatives.
The nonterminal reference graph must be acyclic, so every grammar denotes a
finite, exactly countable language.
"""

from __future__ import annotations

import graphlib
import re
from dataclasses import dataclass
from functools import cache

from .errors import (
    CyclicGrammar,
    DuplicateStartSymbol,
    OverlappingSpans,
    ParseError,
    SpanOutOfBounds,
    UnboundSlot,
    UndefinedNonterminal,
    UnknownStart,
)
from .seeding import rng_for

_NONTERMINAL_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")
_SLOT_TOKEN_RE = re.compile(r"([^\s{}]*)\{([A-Za-z0-9_]+)\}([^\s{}]*)\Z")


@dataclass(frozen=True)
class Nonterminal:
    """Reference to another rule on an alternative's right-hand side."""

    name: str


@dataclass(frozen=True)
class Slot:
    """Typed placeholder; ``prefix``/``suffix`` carry attached punctuation."""

    name: str
    prefix: str = ""
    suffix: str = ""


Symbol = str | Nonterminal | Slot
Token = str | Slot


@dataclass(frozen=True)
class Template:
    """A flat sequence of literal words and slot placeholders.

    Templates come from two places: sampling a grammar (``source_start`` and
    ``derivation_seed`` record the derivation) and delexicalizing a concrete
    utterance (both stay ``None``).
    """

    tokens: tuple[Token, ...]
    source_start: str | None = None
    derivation_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("template must contain at least one token")
        for token in self.tokens:
            if isinstance(token, Slot) and not token.name:
                raise ValueError("slot placeholders must carry a nonempty name")

    def placeholders(self) -> list[str]:
        """Slot names in template order (duplicates kept)."""
        return [t.name for t in self.tokens if isinstance(t, Slot)]


@dataclass(frozen=True)
class Grammar:
    """Validated rule set; immutable after load, safe to share across threads."""

    rules: dict[str, tuple[tuple[Symbol, ...], ...]]
    start_symbols: tuple[str, ...]


def _classify_token(token: str) -> Symbol:
    slot = _SLOT_TOKEN_RE.fullmatch(token)
    if slot:
        return Slot(slot.group(2), prefix=slot.group(1), suffix=slot.group(3))
    if _NONTERMINAL_RE.fullmatch(token):
        return Nonterminal(token)
    return token


def load_grammar(text: str) -> Grammar:
    """Parse grammar source text and validate every structural invariant.

    Raises ParseError, UndefinedNonterminal, CyclicGrammar, or
    DuplicateStartSymbol.  When no ``%start`` directive appears, the first
    rule's left-hand side becomes the sole entry point.
    """
    if not text.strip():
        raise ParseError(0, "empty grammar source")

    rules: dict[str, list[tuple[Symbol, ...]]] = {}
    starts: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%"):
            parts = line.split()
            if parts[0] != "%start" or len(parts) != 2:
                raise ParseError(line_no, f"unknown directive {line!r}")
            if parts[1] in starts:
                raise DuplicateStartSymbol(parts[1])
            starts.append(parts[1])
            continue
        if "->" not in line:
            raise ParseError(line_no, "expected 'LHS -> alternatives'")
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        if not _NONTERMINAL_RE.fullmatch(lhs):
            raise ParseError(line_no, f"left-hand side {lhs!r} is not an UPPERCASE nonterminal")
        alternatives = rules.setdefault(lhs, [])
        for alt_text in rhs.split("|"):
            symbols = tuple(_classify_token(tok) for tok in alt_text.split())
            if not symbols:
                raise ParseError(line_no, "empty alternative (write the optional variant out explicitly)")
            alternatives.append(symbols)

    if not rules:
        raise ParseError(0, "grammar declares no rules")
    if not starts:
        starts = [next(iter(rules))]

    grammar = Grammar(
        rules={name: tuple(alts) for name, alts in rules.items()},
        start_symbols=tuple(starts),
    )
    _validate(grammar)
    return grammar


def load_grammar_file(path: str) -> Grammar:
    with open(path, encoding="utf-8") as handle:
        return load_grammar(handle.read())


def _validate(grammar: Grammar) -> None:
    for name, alternatives in grammar.rules.items():
        for alt in alternatives:
            for symbol in alt:
                if isinstance(symbol, Nonterminal) and symbol.name not in grammar.rules:
                    raise UndefinedNonterminal(symbol.name, context=name)
    for start in grammar.start_symbols:
        if start not in grammar.rules:
            raise UndefinedNonterminal(start, context="%start")
    _check_acyclic(grammar)


def _check_acyclic(grammar: Grammar) -> None:
    # Each rule's predecessors are the nonterminals it refers to, so a cycle
    # comes back against reference order.
    graph = {name: [s.name for alt in alts for s in alt if isinstance(s, Nonterminal)]
             for name, alts in grammar.rules.items()}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise CyclicGrammar(exc.args[1][::-1]) from None


def sample(grammar: Grammar, start: str, seed: int) -> Template:
    """Derive one template from ``start``, uniform over alternatives.

    Pure function of (grammar, start, seed): the same arguments always yield
    the same template.
    """
    if start not in grammar.rules:
        raise UnknownStart(start)
    rng = rng_for("grammar.sample", start, seed)
    tokens: list[Token] = []

    def expand(name: str) -> None:
        alternatives = grammar.rules[name]
        chosen = alternatives[rng.randrange(len(alternatives))]
        for symbol in chosen:
            if isinstance(symbol, Nonterminal):
                expand(symbol.name)
            else:
                tokens.append(symbol)

    expand(start)
    return Template(tuple(tokens), source_start=start, derivation_seed=seed)


def count_language(grammar: Grammar, start: str) -> int:
    """Exact number of distinct derivations from ``start``, without enumeration.

    Product over sequence positions, sum over alternatives; arbitrary
    precision, so counts in the millions are exact.
    """
    if start not in grammar.rules:
        raise UnknownStart(start)

    @cache
    def count(name: str) -> int:
        total = 0
        for alt in grammar.rules[name]:
            product = 1
            for symbol in alt:
                if isinstance(symbol, Nonterminal):
                    product *= count(symbol.name)
            total += product
        return total

    return count(start)


def delexicalize(utterance: str, entity_spans: list[tuple[int, int, str]]) -> Template:
    """Replace character spans with slot placeholders, keep the rest literal.

    Spans are (start, end, slot_name) with ``end`` exclusive; they must be
    in bounds and non-overlapping.  Literal stretches are whitespace-split,
    so filling the result with the original span texts reproduces the
    utterance byte-for-byte whenever tokens were single-space separated and
    spans sit on token boundaries.
    """
    for start, end, slot_name in entity_spans:
        if not slot_name:
            raise ValueError("slot names must be nonempty")
        if start < 0 or end > len(utterance) or start >= end:
            raise SpanOutOfBounds(f"span ({start}, {end}) outside utterance of length {len(utterance)}")
    ordered = sorted(entity_spans)
    for (_, prev_end, prev_name), (nxt_start, _, nxt_name) in zip(ordered, ordered[1:]):
        if nxt_start < prev_end:
            raise OverlappingSpans(f"spans for {prev_name!r} and {nxt_name!r} overlap")

    tokens: list[Token] = []
    cursor = 0
    for start, end, slot_name in ordered:
        tokens.extend(utterance[cursor:start].split())
        tokens.append(Slot(slot_name))
        cursor = end
    tokens.extend(utterance[cursor:].split())
    return Template(tuple(tokens))


def fill(template: Template, bindings: dict[str, str]) -> str:
    """Substitute every placeholder and join tokens with single spaces."""
    parts: list[str] = []
    for token in template.tokens:
        if isinstance(token, Slot):
            if token.name not in bindings:
                raise UnboundSlot(token.name)
            parts.append(token.prefix + bindings[token.name] + token.suffix)
        else:
            parts.append(token)
    return " ".join(parts)
