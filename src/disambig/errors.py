"""Exception types shared across the toolkit.

Validation and lookup problems raise subclasses of :class:`DisambigError`;
plain I/O failures are left to the standard :class:`OSError` family so the
CLI can map the two groups to distinct exit codes.
"""

from __future__ import annotations


class DisambigError(Exception):
    """Base class for every validation or lookup failure in this package."""


# --- grammar ---------------------------------------------------------------


class GrammarError(DisambigError):
    pass


class ParseError(GrammarError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UndefinedNonterminal(GrammarError):
    def __init__(self, name: str, context: str = ""):
        self.name = name
        suffix = f" (referenced from {context})" if context else ""
        super().__init__(f"nonterminal {name!r} has no rule{suffix}")


class CyclicGrammar(GrammarError):
    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("cycle in nonterminal graph: " + " -> ".join(self.cycle))


class DuplicateStartSymbol(GrammarError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"start symbol {name!r} declared more than once")


class UnknownStart(GrammarError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown start symbol or rule name {name!r}")


class UnboundSlot(GrammarError):
    def __init__(self, slot: str):
        self.slot = slot
        super().__init__(f"no binding for slot {slot!r}")


# --- corpus and database -----------------------------------------------------


class SchemaMismatch(DisambigError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class UnknownDomain(DisambigError):
    def __init__(self, domain: str):
        self.domain = domain
        super().__init__(f"unknown domain {domain!r}")


class NotEnoughEntities(DisambigError):
    def __init__(self, have: int, want: int):
        self.have = have
        self.want = want
        super().__init__(f"need {want} distinct entities, table has {have}")


# --- synthesis ----------------------------------------------------------------


class InvalidTargetArity(DisambigError):
    pass


class NoUniquePartial(DisambigError):
    pass


class NoDiscriminatingAttribute(DisambigError):
    pass


class TypoGenerationFailed(DisambigError):
    pass


# --- resolution ----------------------------------------------------------------


class NoMatch(DisambigError):
    pass


# --- metrics --------------------------------------------------------------------


class MissingPrediction(DisambigError):
    def __init__(self, key: tuple[str, int]):
        self.key = key
        super().__init__(f"no prediction row for (dialog_id={key[0]!r}, turn_index={key[1]})")


class UnknownSubsetTurn(DisambigError):
    def __init__(self, key: tuple[str, int]):
        self.key = key
        super().__init__(f"prediction key (dialog_id={key[0]!r}, turn_index={key[1]}) not in gold corpus")
