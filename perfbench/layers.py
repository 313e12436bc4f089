"""Per-layer metrics: which functions the traced run wraps, and what it reads off them.

A layer is one module of ``disambig``.  ``TARGETS`` names the public
functions wrapped in each; :class:`LayerProbe` adds the counts a span
alone cannot give (bytes written, evidence stages, per-method latency),
and :meth:`LayerProbe.metrics` turns one pass into the flat metric names
declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import statistics
import threading

from tracing import NameTotals, Tracer

TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("run",),
    "grammar": ("sample", "fill"),
    "seeding": ("derive_seed", "rng_for"),
    "corpus": ("load_corpus", "write_corpus", "load_database", "sample_entities"),
    "synthesizer": (
        "synthesize_split", "synthesize_example", "apply_addressing",
        "build_system_utterance", "build_user_utterance",
        "write_examples", "read_examples", "examples_to_corpus",
    ),
    "augmenter": (
        "augment_corpus", "augment_dialog", "find_augmentable_turns",
        "write_records", "read_records",
    ),
    "resolver": ("predict_names", "resolve", "edit_distance"),
    "metrics": ("read_predictions", "write_predictions", "score", "gold_entity_turns", "gold_states"),
}

METHODS = ("exact", "positional", "partial", "typo", "multiple", "attribute")
EVIDENCE = {"ORDINAL": "ordinal", "EXACT_NAME": "exact_name", "FUZZY_NAME": "fuzzy_name", "ATTRIBUTE": "attribute"}
SUBCOMMANDS = ("synth", "augment", "resolve", "score")

# (name, unit, better) for every per-layer metric, in reporting order.
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"cli.{c}.s", "s", "lower") for c in SUBCOMMANDS]
    + [
        ("grammar.sample.calls", "count", "lower"),
        ("grammar.sample.self_s", "s", "lower"),
        ("grammar.fill.calls", "count", "lower"),
        ("grammar.fill.self_s", "s", "lower"),
        ("seeding.derive_seed.calls", "count", "lower"),
        ("seeding.derive_seed.self_s", "s", "lower"),
        ("seeding.rng_for.calls", "count", "lower"),
        ("seeding.rng_for.self_s", "s", "lower"),
        ("corpus.load_corpus.s", "s", "lower"),
        ("corpus.load_corpus.dialogs", "count", "higher"),
        ("corpus.write_corpus.s", "s", "lower"),
        ("corpus.write_corpus.bytes", "bytes", "lower"),
        ("corpus.load_database.s", "s", "lower"),
        ("corpus.sample_entities.calls", "count", "lower"),
        ("corpus.sample_entities.self_s", "s", "lower"),
        ("synthesizer.synthesize_example.calls", "count", "higher"),
        ("synthesizer.synthesize_example.self_s", "s", "lower"),
        ("synthesizer.apply_addressing.calls", "count", "higher"),
        ("synthesizer.apply_addressing.self_s", "s", "lower"),
        ("synthesizer.write_examples.s", "s", "lower"),
        ("synthesizer.write_examples.bytes", "bytes", "lower"),
        ("synthesizer.read_examples.s", "s", "lower"),
        ("synthesizer.examples_to_corpus.s", "s", "lower"),
        ("augmenter.augment_dialog.calls", "count", "higher"),
        ("augmenter.augment_dialog.self_s", "s", "lower"),
        ("augmenter.find_augmentable_turns.self_s", "s", "lower"),
        ("augmenter.turns_modified", "count", "higher"),
        ("augmenter.dialogs_modified_ratio", "ratio", "higher"),
        ("augmenter.write_records.s", "s", "lower"),
        ("augmenter.read_records.s", "s", "lower"),
        ("resolver.predict_names.calls", "count", "higher"),
        ("resolver.predict_names.p50_ms", "ms", "lower"),
        ("resolver.predict_names.p99_ms", "ms", "lower"),
    ]
    + [(f"resolver.predict_names.{m}.mean_ms", "ms", "lower") for m in METHODS]
    + [
        ("resolver.edit_distance.calls", "count", "lower"),
        ("resolver.edit_distance.self_s", "s", "lower"),
    ]
    + [(f"resolver.evidence.{e}", "count", "higher") for e in EVIDENCE.values()]
    + [
        ("resolver.nomatch", "count", "lower"),
        ("resolver.ambiguous", "count", "lower"),
        ("metrics.read_predictions.s", "s", "lower"),
        ("metrics.score.s", "s", "lower"),
        ("metrics.gold_entity_turns.calls", "count", "lower"),
        ("metrics.gold_states.calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("failed_share", "ratio", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


class LayerProbe:
    """Counts gathered next to the spans of one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self.method_of: dict[int, str] = {}
        self.latencies: list[float] = []
        self.latency_by_method: dict[str, list[float]] = {m: [] for m in METHODS}
        self.evidence = {e: 0 for e in EVIDENCE.values()}
        self.nomatch = 0
        self.ambiguous = 0
        self.turns_modified = 0
        self.dialogs_modified = 0
        self.dialogs_loaded = 0
        self.bytes = {"corpus.write_corpus": 0, "synthesizer.write_examples": 0}
        self.cli_seconds = {c: 0.0 for c in SUBCOMMANDS}

    def observers(self) -> dict:
        return {
            "cli.run": self._cli_run,
            "synthesizer.read_examples": self._read_examples,
            "resolver.predict_names": self._predict_names,
            "resolver.resolve": self._resolve,
            "augmenter.augment_dialog": self._augment_dialog,
            "corpus.load_corpus": self._load_corpus,
            "corpus.write_corpus": self._bytes_written("corpus.write_corpus"),
            "synthesizer.write_examples": self._bytes_written("synthesizer.write_examples"),
        }

    def new_tracer(self, max_raw_spans: int) -> Tracer:
        return Tracer(observers=self.observers(), max_raw_spans=max_raw_spans)

    def _cli_run(self, args, kwargs, result, error, seconds):
        argv = args[0] if args else kwargs.get("argv")
        if argv and argv[0] in self.cli_seconds:
            with self._lock:
                self.cli_seconds[argv[0]] += seconds

    # Only examples carry their addressing method; predict_names is told the
    # method by the identity of the candidate list it receives.
    def _read_examples(self, args, kwargs, result, error, seconds):
        if result is not None:
            with self._lock:
                for example in result:
                    self.method_of[id(example.candidates)] = example.method.value

    def _predict_names(self, args, kwargs, result, error, seconds):
        candidates = args[0] if args else kwargs.get("candidates")
        with self._lock:
            self.latencies.append(seconds)
            method = self.method_of.get(id(candidates))
            if method in self.latency_by_method:
                self.latency_by_method[method].append(seconds)

    def _resolve(self, args, kwargs, result, error, seconds):
        with self._lock:
            if error is not None:
                if type(error).__name__ == "NoMatch":
                    self.nomatch += 1
                return
            kind = EVIDENCE.get(result.matches[0].evidence)
            if kind is not None:
                self.evidence[kind] += 1
            self.ambiguous += bool(result.ambiguous)

    def _augment_dialog(self, args, kwargs, result, error, seconds):
        if result is None:
            return
        applied = sum(1 for record in result[1] if record.skipped_reason is None)
        with self._lock:
            self.turns_modified += applied
            self.dialogs_modified += applied > 0

    def _load_corpus(self, args, kwargs, result, error, seconds):
        if result is not None:
            with self._lock:
                self.dialogs_loaded += len(result.dialogs)

    # Both writers take (rows, path, ...).
    def _bytes_written(self, name: str):
        def observe(args, kwargs, result, error, seconds):
            path = kwargs.get("path", args[1] if len(args) > 1 else None)
            if error is None and path and os.path.exists(path):
                size = os.path.getsize(path)
                with self._lock:
                    self.bytes[name] += size
        return observe

    def metrics(self, tracer: Tracer) -> dict[str, float]:
        """Every per-layer metric of one pass except the two whole-run ones."""
        totals = tracer.totals()

        def of(name: str) -> NameTotals:
            return totals.get(name, NameTotals())

        out: dict[str, float] = {f"cli.{c}.s": s for c, s in self.cli_seconds.items()}
        for name in ("grammar.sample", "grammar.fill", "seeding.derive_seed", "seeding.rng_for",
                     "corpus.sample_entities", "synthesizer.synthesize_example",
                     "synthesizer.apply_addressing", "augmenter.augment_dialog", "resolver.edit_distance"):
            out[f"{name}.calls"] = of(name).calls
            out[f"{name}.self_s"] = of(name).self_s
        for name in ("corpus.load_corpus", "corpus.write_corpus", "corpus.load_database",
                     "synthesizer.write_examples", "synthesizer.read_examples", "synthesizer.examples_to_corpus",
                     "augmenter.write_records", "augmenter.read_records",
                     "metrics.read_predictions", "metrics.score"):
            out[f"{name}.s"] = of(name).total_s
        out["corpus.load_corpus.dialogs"] = self.dialogs_loaded
        out["corpus.write_corpus.bytes"] = self.bytes["corpus.write_corpus"]
        out["synthesizer.write_examples.bytes"] = self.bytes["synthesizer.write_examples"]
        out["augmenter.find_augmentable_turns.self_s"] = of("augmenter.find_augmentable_turns").self_s
        out["augmenter.turns_modified"] = self.turns_modified
        attempts = of("augmenter.augment_dialog").calls
        out["augmenter.dialogs_modified_ratio"] = self.dialogs_modified / attempts if attempts else 0.0
        out["resolver.predict_names.calls"] = len(self.latencies)
        out["resolver.predict_names.p50_ms"] = _percentile(self.latencies, 0.50) * 1e3
        out["resolver.predict_names.p99_ms"] = _percentile(self.latencies, 0.99) * 1e3
        for method, values in self.latency_by_method.items():
            out[f"resolver.predict_names.{method}.mean_ms"] = statistics.fmean(values) * 1e3 if values else 0.0
        for kind, count in self.evidence.items():
            out[f"resolver.evidence.{kind}"] = count
        out["resolver.nomatch"] = self.nomatch
        out["resolver.ambiguous"] = self.ambiguous
        out["metrics.gold_entity_turns.calls"] = of("metrics.gold_entity_turns").calls
        out["metrics.gold_states.calls"] = of("metrics.gold_states").calls
        return out
