"""Command-line front end for the whole pipeline.

Subcommands: grammar-count, synth, augment, stats, upsample, resolve,
score.  Every generating subcommand takes a seed (default 0) and is fully
deterministic given its flags.  ``synth`` and ``augment`` also take
``--config FILE``, a JSON object whose keys mirror their flags: its values
become the subcommand's argparse defaults and the command line is parsed
again, so a flag given on the command line beats the config, and the config
beats the flag's default.  Exit codes: 0 success, 1 validation error, 2 I/O
error.  Diagnostics go to stderr; data goes to the declared output files
(or stdout for the two query commands).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import augmenter, corpus as corpus_mod, metrics, resolver, synthesizer
from .errors import DisambigError, SchemaMismatch
from .grammar import count_language, load_grammar_file
from .jsonl import iter_jsonl, read_json


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _counts(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        parts = [parts[0], parts[0], parts[0]]
    if len(parts) != 3 or any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("expected TRAIN,DEV,TEST nonnegative counts")
    return tuple(parts)


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a thread count of at least 1")
    return value


def _finite_float(low: float, high: float = math.inf):
    """A ``type=`` parser accepting only finite floats from ``low`` to ``high``."""
    expected = f"from {low:g} to {high:g}" if high < math.inf else f"of at least {low:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(f"expected a finite number {expected}, got {text!r}")
        return value

    return parse


def _guard_outputs(inputs: list[str | Path | None], outputs: list[str | None]) -> None:
    resolved_inputs = {Path(p).resolve() for p in inputs if p}
    for out in outputs:
        if out and Path(out).resolve() in resolved_inputs:
            raise SchemaMismatch(f"output path {out!r} would overwrite an input")


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The values of a JSON config whose keys mirror the flags of ``parser``,
    keyed by destination, for ``parser.set_defaults``.

    Set as defaults and parsed again, they give "command line > config >
    default" from argparse itself.  Each value goes through its flag's own
    ``type=`` parser and ``choices``, written as it would be on the command
    line (a list becomes comma-separated), so a config file can set nothing
    that the flag itself would reject, even when the command line overrides
    it.  A flag that takes no value (``--mix-methods``) takes a JSON ``true``
    (as if given) or ``false`` (as if left out), and nothing else.
    """
    overrides = read_json(path)
    if not isinstance(overrides, dict):
        raise SchemaMismatch(f"{path}: config must be a JSON object")
    flags = {action.dest: action for action in parser._actions if action.option_strings and action.dest != "help"}
    values = {}
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise SchemaMismatch(f"config file key {key!r} matches no flag of this subcommand")
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise SchemaMismatch(f"{path}: key {key!r}: expected true or false, got {value!r}")
            values[action.dest] = action.const if value else action.default
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            parsed = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise SchemaMismatch(f"{path}: key {key!r}: {exc}") from exc
        if action.choices is not None and parsed not in action.choices:
            raise SchemaMismatch(f"{path}: key {key!r}: expected one of {sorted(action.choices)}, got {parsed!r}")
        values[action.dest] = parsed
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disambig", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def generator_flags(p: argparse.ArgumentParser) -> None:
        """The inputs and knobs shared by synth and augment."""
        p.add_argument("--db", default="data/database.json", help="database JSON (default: %(default)s)")
        p.add_argument("--grammar", default="grammars/disambiguation.cfg", help="grammar file (default: %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
        p.add_argument("--threads", type=_threads, help="accepted and validated; has no effect, the work is GIL-bound")
        p.add_argument("--config", help="JSON config mirroring these flags")

    def corpus_input(p: argparse.ArgumentParser) -> None:
        """The corpus read by augment and stats."""
        p.add_argument("--in", dest="input", required=True, help="input corpus")
        p.add_argument("--format", default="native", choices=["native", "sgd", "multiwoz22"])

    p = sub.add_parser("grammar-count", help="count the language of a grammar start symbol")
    p.add_argument("grammar", help="grammar source file")
    p.add_argument("--start", required=True, help="start symbol or rule name")

    p = sub.add_parser("synth", help="synthesize single-turn disambiguation datasets")
    generator_flags(p)
    p.add_argument("--out", required=True, help="output directory for train/dev/test JSONL")
    p.add_argument("--total", type=_counts,
                   help="split totals TRAIN,DEV,TEST with methods cycled (default 100000,10000,10000)")
    p.add_argument("--per-method", type=_counts, help="per-method counts TRAIN,DEV,TEST (instead of --total)")
    p.add_argument("--methods", help="comma list among exact,positional,partial,typo,multiple,attribute")
    p.add_argument("--splits", default="train,dev,test", help="which splits to emit")

    p = sub.add_parser("augment", help="inject disambiguation turns into a corpus")
    corpus_input(p)
    generator_flags(p)
    p.add_argument("--out", required=True, help="output directory (corpus.jsonl, records.jsonl, stats.json)")
    p.add_argument("--allow-list", help="JSON file with a list of augmentable domains")
    p.add_argument("--mix-methods", action="store_true",
                   help="vary the user-prefix addressing method instead of always using the exact name")

    p = sub.add_parser("stats", help="multi-result proportions of a corpus")
    corpus_input(p)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("upsample", help="duplicate augmented dialogs up to a multiple of the corpus size")
    p.add_argument("--in", dest="input", required=True, help="augmented native corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--factor", type=_finite_float(0.0), default=1.0,
                   help="target augmented-row count as a multiple of the corpus size")

    p = sub.add_parser("resolve", help="run the rule-based resolver over examples or records")
    p.add_argument("--in", dest="input", required=True, help="SingleTurnExample or AugmentationRecord JSONL")
    p.add_argument("--out", required=True, help="prediction JSONL")
    p.add_argument("--kind", choices=["examples", "records"],
                   help="input schema (default: sniffed from the first row)")
    p.add_argument("--max-fuzzy", type=_finite_float(0.0, 1.0), default=resolver.DEFAULT_MAX_FUZZY,
                   help="largest OSA distance / longer string length a fuzzy name match may have (0 to 1)")

    p = sub.add_parser("score", help="score a prediction file against gold")
    p.add_argument("--preds", required=True)
    p.add_argument("--gold", required=True, help="native corpus or SingleTurnExample JSONL")
    p.add_argument("--records", help="records.jsonl defining the augmented subset")
    p.add_argument("--out", help="write the report here instead of stdout")
    return parser


def _parse_methods(text: str | None) -> tuple[synthesizer.AddressingMethod, ...]:
    if not text:
        return synthesizer.METHODS
    try:
        methods = tuple(synthesizer.AddressingMethod(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SchemaMismatch(f"unknown addressing method in {text!r}") from exc
    if not methods:
        raise SchemaMismatch(f"no addressing method in {text!r}")
    return methods


def _row_kind(row: dict) -> str:
    if "dialog_id" in row:
        return "records"
    return "examples" if "system" in row and "candidates" in row else "corpus"


def _sniff_kind(path: str) -> str:
    """What the first row of ``path`` shows the file to hold: "records",
    "examples" or else a native "corpus".  An empty file holds zero rows,
    which every reader takes, and is called a corpus."""
    return next(iter_jsonl(path, _row_kind), "corpus")


def _corpus_files(args) -> list[str | Path]:
    """The files ``load_corpus`` reads for ``--in``: each ``dialogues_*.json``
    of a schema-guided directory, else the path itself."""
    return [args.input] if args.format == "native" else corpus_mod._schema_guided_files(args.input)


def _write_json(obj, path: str | None) -> None:
    """Pretty-printed JSON to ``path``, or to stdout when no path is given."""
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_grammar_count(args) -> int:
    grammar = load_grammar_file(args.grammar)
    print(count_language(grammar, args.start))
    return 0


def _cmd_synth(args) -> int:
    if args.total is not None and args.per_method is not None:
        raise SchemaMismatch("--total and --per-method cannot both be set")
    db = corpus_mod.load_database(args.db)
    grammar = load_grammar_file(args.grammar)
    config = synthesizer.SynthConfig(per_method=args.per_method, methods=_parse_methods(args.methods), seed=args.seed)
    if args.total:
        config = replace(config, totals=args.total)
    splits = [s.strip() for s in args.splits.split(",") if s.strip()]
    for split in splits:
        if split not in corpus_mod.SPLITS:
            raise SchemaMismatch(f"unknown split {split!r}")
    out_dir = Path(args.out)
    _guard_outputs(
        [args.db, args.grammar, args.config],
        [str(out_dir / f"{split}.jsonl") for split in splits],
    )
    for split in splits:
        examples = synthesizer.synthesize_split(db, grammar, config, split)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{split}.jsonl"
        synthesizer.write_examples(examples, str(target))
        _log(f"wrote {len(examples)} examples to {target}")
    return 0


def _load_allow_list(path: str | None) -> frozenset[str]:
    if not path:
        return augmenter.DEFAULT_ALLOWED
    names = read_json(path)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaMismatch(f"{path}: allow-list must be a JSON list of domain names")
    return frozenset(names)


def _cmd_augment(args) -> int:
    dialog_corpus = corpus_mod.load_corpus(args.input, format=args.format)
    db = corpus_mod.load_database(args.db)
    grammar = load_grammar_file(args.grammar)
    allowed = _load_allow_list(args.allow_list)
    methods = augmenter.AUGMENT_METHODS if args.mix_methods else (synthesizer.AddressingMethod.EXACT,)

    out_dir = Path(args.out)
    outputs = [out_dir / "corpus.jsonl", out_dir / "records.jsonl", out_dir / "stats.json"]
    _guard_outputs([*_corpus_files(args), args.db, args.grammar, args.allow_list, args.config],
                   [str(p) for p in outputs])

    new_corpus, records, stats = augmenter.augment_corpus(dialog_corpus, db, grammar, args.seed, allowed, methods)

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(new_corpus, str(outputs[0]))
    augmenter.write_records(records, str(outputs[1]))
    _write_json(stats.to_json(), str(outputs[2]))
    _log(f"modified {stats.turns_modified} of {stats.turns_total} turns "
         f"across {stats.dialogs_modified} of {stats.dialogs_total} dialogs")
    return 0


def _cmd_stats(args) -> int:
    _guard_outputs(_corpus_files(args), [args.out])
    report = augmenter.multi_result_report(corpus_mod.load_corpus(args.input, format=args.format))
    _write_json(report, args.out)
    return 0


def _cmd_upsample(args) -> int:
    _guard_outputs([args.input], [args.out])
    base = corpus_mod.load_corpus(args.input, format="native")
    augmented = [d for d in base.dialogs if any("disambig" in t.extras for t in d.turns)]
    if not augmented:
        raise SchemaMismatch("corpus has no augmented dialogs to upsample")
    target = round(args.factor * len(base.dialogs))
    dialogs = list(base.dialogs)
    extra_needed = max(0, target - len(augmented))
    # Copy n of a dialog is named "<id>~up<n>"; n skips ids already in the
    # corpus, so upsampling an upsampled corpus keeps ids unique.
    taken = {d.id for d in dialogs}
    next_copy = dict.fromkeys(taken, 1)
    for i in range(extra_needed):
        source = augmented[i % len(augmented)]
        n = next_copy[source.id]
        while f"{source.id}~up{n}" in taken:
            n += 1
        next_copy[source.id] = n + 1
        copy_id = f"{source.id}~up{n}"
        taken.add(copy_id)
        dialogs.append(replace(source, id=copy_id))
    out = corpus_mod.Corpus(dialogs=dialogs, split_name=base.split_name, source_format=base.source_format)
    corpus_mod.write_corpus(out, args.out)
    _log(f"upsampled {len(augmented)} augmented dialogs with {extra_needed} duplicates (target {target})")
    return 0


def _cmd_resolve(args) -> int:
    _guard_outputs([args.input], [args.out])
    # One (row number, prediction key, candidates, reply) per input row to resolve.
    if (args.kind or _sniff_kind(args.input)) == "records":
        items = ((row, (record.dialog_id, record.turn_index), record.candidates, record.user_prefix)
                 for row, record in enumerate(augmenter.read_records(args.input), start=1)
                 if record.skipped_reason is None)
    else:
        items = ((row, (synthesizer.example_dialog_id(row - 1), 0), example.candidates, example.user_utterance)
                 for row, example in enumerate(synthesizer.read_examples(args.input), start=1))
    rows: list[metrics.PredictionRow] = []
    for row, (dialog_id, turn_index), candidates, reply in items:
        try:
            names = resolver.predict_names(candidates, reply, max_fuzzy=args.max_fuzzy)
        except ValueError as exc:  # a candidate pool the resolver cannot take
            raise SchemaMismatch(f"{args.input}: row {row}: {exc}, got {len(candidates)}") from exc
        rows.append(metrics.PredictionRow(dialog_id=dialog_id, turn_index=turn_index, entities=names))
    metrics.write_predictions(rows, args.out)
    _log(f"resolved {len(rows)} rows from {args.input}")
    return 0


def _cmd_score(args) -> int:
    _guard_outputs([args.preds, args.gold, args.records], [args.out])
    preds = metrics.read_predictions(args.preds)
    if _sniff_kind(args.gold) == "examples":
        gold = synthesizer.examples_to_corpus(synthesizer.read_examples(args.gold))
    else:
        gold = corpus_mod.load_corpus(args.gold, format="native")
    records = augmenter.read_records(args.records) if args.records else None
    _write_json(metrics.score(preds, gold, records).to_json(), args.out)
    return 0


_COMMANDS = {
    "grammar-count": _cmd_grammar_count,
    "synth": _cmd_synth,
    "augment": _cmd_augment,
    "stats": _cmd_stats,
    "upsample": _cmd_upsample,
    "resolve": _cmd_resolve,
    "score": _cmd_score,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "config", None):
            subparser = parser.subcommands[args.command]
            subparser.set_defaults(**_config_defaults(args.config, subparser))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except DisambigError as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
