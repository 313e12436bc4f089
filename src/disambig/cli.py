"""Command-line front end for the whole pipeline.

Subcommands: grammar-count, synth, augment, stats, upsample, resolve,
score.  Every generating subcommand takes a seed (default 0) and is fully
deterministic given its flags.  ``synth`` and ``augment`` also take
``--config FILE``, a JSON object whose keys mirror their flags: its values
become the subcommand's argparse defaults and the command line is parsed
again, so a flag given on the command line beats the config, and the config
beats the flag's default.  Exit codes: 0 success, 1 validation error, 2 I/O
error.  Diagnostics go to stderr; data goes to the declared output files
(or stdout for the two query commands), each written through
``jsonl.staged_outputs`` so that it appears whole or not at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from itertools import islice
from pathlib import Path

from . import augmenter, corpus as corpus_mod, metrics, resolver, synthesizer
from .errors import DisambigError, GrammarError, SchemaMismatch
from .grammar import Grammar, count_language, load_grammar_file
from .jsonl import iter_jsonl, numbered_rows, read_json, staged_outputs, write_row, wrong_type


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
    """Refuse an output that is already the same file as an input, by any
    path, symbolic link or hard link to it.  A missing input cannot be
    overwritten: reading it fails first."""
    existing = [p for p in inputs if p and Path(p).exists()]
    for out in outputs:
        if out and Path(out).exists() and any(os.path.samefile(out, p) for p in existing):
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
    (as if given) or ``false`` (as if left out), and nothing else; any other
    flag takes a string or a number, never ``null``, a boolean or an object.
    Only the four flags that take a comma list also take a list, of strings
    and numbers.
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
        if type(value) not in (str, int, float, list):
            raise SchemaMismatch(f"{path}: key {key!r}: expected a string, a number or a list, got {value!r}")
        if type(value) is list:
            if action.dest not in ("total", "per_method", "methods", "splits"):
                raise SchemaMismatch(f"{path}: key {key!r}: expected a string or a number, got {value!r}")
            if any(type(item) not in (str, int, float) for item in value):
                raise SchemaMismatch(f"{path}: key {key!r}: expected a list of strings and numbers, got {value!r}")
        text = ",".join(map(str, value)) if type(value) is list else str(value)
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
    """The methods ``--methods`` names, in its order (all six when it is not
    given): at least one, each known and each given once, since a method
    given twice would be synthesized twice."""
    if not text:
        return synthesizer.METHODS
    try:
        methods = tuple(synthesizer.AddressingMethod(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SchemaMismatch(f"unknown addressing method in {text!r}") from exc
    if not methods:
        raise SchemaMismatch(f"no addressing method in {text!r}")
    for method in methods:
        if methods.count(method) > 1:
            raise SchemaMismatch(f"method {method.value!r} given twice")
    return methods


def _parse_splits(text: str) -> list[str]:
    """The splits ``--splits`` names, in its order: at least one, each a
    known split and each given once, since each is one output file."""
    splits = [part.strip() for part in text.split(",") if part.strip()]
    if not splits:
        raise SchemaMismatch(f"no split in {text!r}")
    for split in splits:
        if split not in corpus_mod.SPLITS:
            raise SchemaMismatch(f"unknown split {split!r}")
        if splits.count(split) > 1:
            raise SchemaMismatch(f"split {split!r} given twice")
    return splits


def _check_grammar(path: str, grammar: Grammar, methods: tuple[synthesizer.AddressingMethod, ...]) -> None:
    """``synthesizer.check_grammar``, its GrammarError naming the grammar file first."""
    try:
        synthesizer.check_grammar(grammar, methods)
    except GrammarError as exc:
        raise GrammarError(f"{path}: {exc}") from exc


def _row_kind(row: dict) -> str:
    if type(row) is not dict:  # a row of any kind is an object
        raise wrong_type(row, dict)
    return "records" if "dialog_id" in row else "examples" if "system" in row and "candidates" in row else "corpus"


def _sniff_kind(path: str, remedy: str) -> str:
    """What the first row of ``path`` shows the file to hold: "records",
    "examples" or else a native "corpus".  An empty file holds zero rows,
    which every reader takes, and is called a corpus.  The reader opens the
    file again, so only a regular file is sniffed: a pipe (``/dev/stdin``
    fed by one) can be read only once, and is refused with ``remedy``."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise SchemaMismatch(f"{path}: not a regular file, so its kind is not guessed from its first row: {remedy}")
    return next(iter_jsonl(path, _row_kind), "corpus")


def _corpus_files(args) -> list[str | Path]:
    """The files ``read_corpus`` reads for ``--in``: each ``dialogues_*.json``
    of a schema-guided directory, else the path itself."""
    return [args.input] if args.format == "native" else corpus_mod._schema_guided_files(args.input)


def _json_text(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _write_json(obj, path: str | None) -> None:
    """Pretty-printed JSON to ``path``, or to stdout when no path is given."""
    if path:
        with staged_outputs(path) as (out,):
            out.write(_json_text(obj))
    else:
        sys.stdout.write(_json_text(obj))


def _cmd_grammar_count(args) -> int:
    grammar = load_grammar_file(args.grammar)
    print(count_language(grammar, args.start))
    return 0


def _cmd_synth(args) -> int:
    if args.total is not None and args.per_method is not None:
        raise SchemaMismatch("--total and --per-method cannot both be set")
    splits, methods = _parse_splits(args.splits), _parse_methods(args.methods)
    db = corpus_mod.load_database(args.db)
    grammar = load_grammar_file(args.grammar)
    config = synthesizer.SynthConfig(per_method=args.per_method, methods=methods, seed=args.seed)
    _check_grammar(args.grammar, grammar, methods)
    if args.total:
        config = config._replace(totals=args.total)
    outputs = [Path(args.out, f"{split}.jsonl") for split in splits]
    _guard_outputs([args.db, args.grammar, args.config], [str(p) for p in outputs])
    # Each split is written as it is made, and is freed before the next is made.
    counts = []
    with staged_outputs(*outputs) as handles:
        for split, handle in zip(splits, handles):
            examples = synthesizer.synthesize_split(db, grammar, config, split)
            for example in examples:
                write_row(handle, example.to_json())
            counts.append(len(examples))
            del examples
    for count, target in zip(counts, outputs):
        _log(f"wrote {count} examples to {target}")
    return 0


def _load_allow_list(path: str | None) -> frozenset[str]:
    if not path:
        return augmenter.DEFAULT_ALLOWED
    names = read_json(path)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaMismatch(f"{path}: allow-list must be a JSON list of domain names")
    return frozenset(names)


def _cmd_augment(args) -> int:
    db = corpus_mod.load_database(args.db)
    grammar = load_grammar_file(args.grammar)
    allowed = _load_allow_list(args.allow_list)
    methods = augmenter.AUGMENT_METHODS if args.mix_methods else (synthesizer.AddressingMethod.EXACT,)
    _check_grammar(args.grammar, grammar, methods)

    out_dir = Path(args.out)
    outputs = [out_dir / "corpus.jsonl", out_dir / "records.jsonl", out_dir / "stats.json"]
    _guard_outputs([*_corpus_files(args), args.db, args.grammar, args.allow_list, args.config],
                   [str(p) for p in outputs])

    # Read -> augment -> write, one dialog at a time.
    source = corpus_mod.read_corpus(args.input, format=args.format)
    stats = augmenter.new_stats()
    with staged_outputs(*outputs) as (corpus_out, records_out, stats_out):
        write_row(corpus_out, corpus_mod.header_row(source))
        for dialog, records in augmenter.augment_dialogs(source.dialogs, db, grammar, args.seed, allowed, methods,
                                                         stats):
            write_row(corpus_out, dialog)
            for record in records:
                write_row(records_out, record.to_json())
        stats_out.write(_json_text(stats))
    _log(f"modified {stats['turns_modified']} of {stats['turns_total']} turns "
         f"across {stats['dialogs_modified']} of {stats['dialogs_total']} dialogs")
    return 0


def _cmd_stats(args) -> int:
    _guard_outputs(_corpus_files(args), [args.out])
    report = augmenter.multi_result_report(corpus_mod.read_corpus(args.input, format=args.format).dialogs)
    _write_json(report, args.out)
    return 0


def _cmd_upsample(args) -> int:
    _guard_outputs([args.input], [args.out])
    # One pass writes each dialog as it is read and keeps only the ids and
    # the augmented dialogs; the copies of those follow it, round-robin.
    source = corpus_mod.read_corpus(args.input)
    taken, augmented = set(), []
    with staged_outputs(args.out) as (out,):
        write_row(out, corpus_mod.header_row(source))
        for dialog in source.dialogs:
            write_row(out, dialog)
            taken.add(dialog["id"])
            if any("disambig" in t["extras"] for t in dialog["turns"]):
                augmented.append(dialog)
        if not augmented:
            raise SchemaMismatch("corpus has no augmented dialogs to upsample")
        target = round(args.factor * len(taken))
        extra_needed = max(0, target - len(augmented))
        # Copy n of a dialog is named "<id>~up<n>"; n skips ids already in the
        # corpus, so upsampling an upsampled corpus keeps ids unique.
        next_copy: dict[str, int] = {}
        for i in range(extra_needed):
            dialog = augmented[i % len(augmented)]
            n = next_copy.get(dialog["id"], 1)
            while (copy_id := f"{dialog['id']}~up{n}") in taken:
                n += 1
            next_copy[dialog["id"]] = n + 1
            taken.add(copy_id)
            write_row(out, {**dialog, "id": copy_id})
    _log(f"upsampled {len(augmented)} augmented dialogs with {extra_needed} duplicates (target {target})")
    return 0


def _cmd_resolve(args) -> int:
    _guard_outputs([args.input], [args.out])
    # One (row index, prediction key, candidates, reply) per input row to resolve.
    if (args.kind or _sniff_kind(args.input, "give --kind")) == "records":
        items = ((row, (record.dialog_id, record.turn_index), record.candidates, record.user_prefix)
                 for row, record in enumerate(augmenter.read_records(args.input))
                 if record.skipped_reason is None)
    else:
        items = ((row, (synthesizer.example_dialog_id(row), 0), example.candidates, example.user_utterance)
                 for row, example in enumerate(synthesizer.read_examples(args.input)))
    rows: list[dict] = []
    for row, (dialog_id, turn_index), candidates, reply in items:
        try:
            names = resolver.predict_names(candidates, reply, max_fuzzy=args.max_fuzzy)
        except ValueError as exc:  # a candidate pool the resolver cannot take
            # The row's line is found by reading the input again, which a pipe cannot be.
            where = (f"line {next(islice(numbered_rows(args.input), row, None))[0]}" if os.path.isfile(args.input)
                     else f"row {row + 1}")
            raise SchemaMismatch(f"{args.input}: {where}: {exc}, got {len(candidates)}") from exc
        rows.append({"dialog_id": dialog_id, "turn_index": turn_index, "entities": names})
    metrics.write_predictions(rows, args.out)
    _log(f"resolved {len(rows)} rows from {args.input}")
    return 0


def _cmd_score(args) -> int:
    _guard_outputs([args.preds, args.gold, args.records], [args.out])
    preds = metrics.read_predictions(args.preds)
    records = augmenter.iter_records(args.records) if args.records else None
    if _sniff_kind(args.gold, "give a regular file") == "examples":
        gold = synthesizer.examples_to_corpus(synthesizer.read_examples(args.gold))
    else:
        gold = corpus_mod.read_corpus(args.gold, format="native")
    _write_json(metrics.score(preds, gold, records), args.out)
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
    """Run one subcommand and return its exit code.

    Cyclic garbage collection is off while it runs.  Every row the pipeline
    holds is a tree of dicts, lists and tuples that reference counting frees
    on its own, so the collector would only rescan a heap that grows with
    the input and never holds a cycle; what cycles a run does make (its
    argument parser) do not grow with the input.  The caller's
    ``gc.isenabled()`` state is restored on return, whatever the exit.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # a usage error, or --help printed
            code = int(exc.code or 0)
        else:
            if getattr(args, "config", None):
                subparser = parser.subcommands[args.command]
                subparser.set_defaults(**_config_defaults(args.config, subparser))
                args = parser.parse_args(argv)
            code = _COMMANDS[args.command](args)
        # What was printed leaves the buffer here, so a reader that has gone
        # away is an i/o error like any other, not a failure at exit.
        sys.stdout.flush()
        return code
    except DisambigError as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"i/o error: {exc}")
        _drop_unwritable_stdout()
        return 2


def _drop_unwritable_stdout() -> None:
    """Point fd 1 at the null device when stdout cannot be flushed, as the
    ``signal`` module's SIGPIPE note shows: the interpreter flushes stdout
    again at exit, and that flush would fail a second time and print its
    own report."""
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main() -> None:
    """The console entry point: ``run`` the command line, then exit.

    The heap is frozen before the exit because interpreter shutdown runs
    full collections whether or not the collector is enabled, and each one
    would scan every object the run left; frozen objects are not scanned.
    Programs that embed the CLI call ``run``, which freezes nothing.
    """
    code = run()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
