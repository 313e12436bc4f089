"""Exception types shared across the toolkit.

Validation and lookup problems raise :class:`DisambigError` or one of its
subclasses; plain I/O failures are left to the standard :class:`OSError`
family so the CLI can map the two groups to distinct exit codes.  A failure
has a class of its own only where some code catches it on its own; the
message carries the detail (the line, the cycle, the missing key).
"""

from __future__ import annotations


class DisambigError(Exception):
    """Any validation or lookup failure in this package; the CLI exits 1."""


class GrammarError(DisambigError):
    """A grammar that cannot be parsed, validated, sampled or filled."""


class SchemaMismatch(DisambigError):
    """An input, a flag value or an argument that does not fit its format."""


class Unwordable(DisambigError):
    """A candidate set that an addressing method cannot word for its target."""


class NoMatch(DisambigError):
    """A user reply that the resolver cannot tie to any candidate."""
