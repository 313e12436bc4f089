"""Toolkit for synthesizing, injecting, and scoring option-list
disambiguation turns in task-oriented dialog corpora.

The public names below are imported from their modules on first use
(PEP 562), so that importing one module, ``disambig.resolver`` say, loads
only that module and what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("Corpus", "Database", "load_corpus", "load_database", "normalize", "write_corpus"),
    "grammar": ("Grammar", "count_language", "fill", "load_grammar", "sample"),
    "resolver": ("edit_distance", "resolve"),
    "synthesizer": ("AddressingMethod", "SingleTurnExample", "SynthConfig", "apply_addressing", "synthesize_example"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
