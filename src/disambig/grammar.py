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
    ParseError,
    UnboundSlot,
    UndefinedNonterminal,
    UnknownStart,
)
from .jsonl import read_text
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
    return load_grammar(read_text(path))


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


def sample(grammar: Grammar, start: str, seed: int) -> tuple[Token, ...]:
    """Derive one token sequence from ``start``, uniform over alternatives.

    Pure function of (grammar, start, seed): the same arguments always yield
    the same tokens, ready for :func:`fill`.
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
    return tuple(tokens)


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


def fill(tokens: tuple[Token, ...], bindings: dict[str, str]) -> str:
    """Substitute every placeholder and join tokens with single spaces."""
    parts: list[str] = []
    for token in tokens:
        if isinstance(token, Slot):
            if token.name not in bindings:
                raise UnboundSlot(token.name)
            parts.append(token.prefix + bindings[token.name] + token.suffix)
        else:
            parts.append(token)
    return " ".join(parts)
