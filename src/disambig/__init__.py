"""Toolkit for synthesizing, injecting, and scoring option-list
disambiguation turns in task-oriented dialog corpora."""

from .corpus import Corpus, Database, load_corpus, load_database, normalize, write_corpus
from .grammar import Grammar, count_language, fill, load_grammar, sample
from .resolver import edit_distance, resolve
from .synthesizer import AddressingMethod, SingleTurnExample, SynthConfig, apply_addressing, synthesize_example

__version__ = "0.1.0"

__all__ = [
    "AddressingMethod",
    "Corpus",
    "Database",
    "Grammar",
    "SingleTurnExample",
    "SynthConfig",
    "apply_addressing",
    "count_language",
    "edit_distance",
    "fill",
    "load_corpus",
    "load_database",
    "load_grammar",
    "normalize",
    "resolve",
    "sample",
    "synthesize_example",
    "write_corpus",
]
