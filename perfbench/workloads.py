"""The three benchmark workloads: their inputs, their CLI pass, and their output checks.

Every workload is built only from the shipped grammar, database and toy
corpus, and only from the benchmark seed.  The program sees nothing but the
generated files and its command-line flags.  A pass is the sequence of CLI
subcommands that the benchmark times; one item is one example (or one
dialog for ``augment-corpus``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

DB = "data/database.json"
GRAMMAR = "grammars/disambiguation.cfg"
TOY_CORPUS = "data/toy_corpus.jsonl"
TOY_EXPECTED = "data/toy_corpus_expected.json"
REQUIRED_FILES = ("src/disambig/cli.py", DB, GRAMMAR, TOY_CORPUS, TOY_EXPECTED)

SIX_METHODS = {"exact", "positional", "partial", "typo", "multiple", "attribute"}

# Inputs per pass.  "full" is what `run.py` measures; "smoke" runs all three
# workloads in seconds and is what the benchmark's own tests use.
SIZES = {
    "full": {"resolve_examples": 1000, "synth_examples": 5000, "prefix_rows": 1000, "corpus_copies": 20,
             "roundtrip_rows": 600},
    "smoke": {"resolve_examples": 60, "synth_examples": 240, "prefix_rows": 120, "corpus_copies": 2,
              "roundtrip_rows": 60},
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def jsonl_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@dataclass
class Context:
    """Where a run reads and writes, and the sizes and seed it uses."""

    root: Path
    work: Path
    seed: int
    sizes: dict


class Check(list):
    """Named pass/fail results of one workload's output checks."""

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.append((name, bool(ok), detail))


class Workload:
    name = ""
    why = ""

    def items(self, ctx: Context) -> int:
        raise NotImplementedError

    def setup_steps(self, ctx: Context, rep_dir: str) -> list[list[str]]:
        """CLI steps that make this workload's inputs in ``rep_dir``."""
        return []

    def setup_local(self, ctx: Context, rep_dir: str) -> None:
        """Input generation done by the benchmark itself, without the CLI."""

    def setup_outputs(self, ctx: Context, rep_dir: str) -> list[str]:
        raise NotImplementedError

    def pass_steps(self, ctx: Context, inputs: str, out: str) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: str) -> list[str]:
        raise NotImplementedError

    def check(self, ctx: Context, inputs: str, out: str, checks: Check) -> None:
        raise NotImplementedError

    def extra_steps(self, ctx: Context, inputs: str, out: str, check_dir: str) -> list[list[str]]:
        """CLI steps run once after the timed region to feed the checks."""
        return []

    def accuracy(self, out: str, check_dir: str) -> float:
        raise NotImplementedError


def _score_checks(report: dict, checks: Check, prefix: str, need_methods: set[str] | None) -> None:
    checks.expect(f"{prefix}.entity_accuracy_all", report.get("entity_accuracy_all") == 1.0,
                  f"entity_accuracy_all={report.get('entity_accuracy_all')}")
    if need_methods is not None:
        per_method = report.get("per_method") or {}
        checks.expect(f"{prefix}.methods", set(per_method) == need_methods, f"methods={sorted(per_method)}")
        low = {m: a for m, a in per_method.items() if a != 1.0}
        checks.expect(f"{prefix}.per_method", not low, f"below 1.0: {low}")


class ResolveMixed(Workload):
    name = "resolve-mixed"
    why = ("resolver-heavy: six addressing methods over 27 domains; fuzzy and attribute "
           "stages dominate; JSONL mostly read")

    def items(self, ctx):
        return ctx.sizes["resolve_examples"]

    def setup_steps(self, ctx, rep_dir):
        n = ctx.sizes["resolve_examples"]
        return [["synth", "--db", DB, "--grammar", GRAMMAR, "--out", rep_dir, "--splits", "test",
                 "--total", f"0,0,{n}", "--seed", str(ctx.seed)]]

    def setup_outputs(self, ctx, rep_dir):
        return [f"{rep_dir}/test.jsonl"]

    def pass_steps(self, ctx, inputs, out):
        return [
            ["resolve", "--in", f"{inputs}/test.jsonl", "--out", f"{out}/preds.jsonl"],
            ["score", "--preds", f"{out}/preds.jsonl", "--gold", f"{inputs}/test.jsonl", "--out", f"{out}/score.json"],
        ]

    def outputs(self, out):
        return [f"{out}/preds.jsonl", f"{out}/score.json"]

    def check(self, ctx, inputs, out, checks):
        rows = jsonl_rows(Path(out, "preds.jsonl"))
        checks.expect("resolve.rows", len(rows) == self.items(ctx), f"{len(rows)} prediction rows")
        _score_checks(read_json(Path(out, "score.json")), checks, "score", SIX_METHODS)

    def accuracy(self, out, check_dir):
        return read_json(Path(out, "score.json"))["entity_accuracy_all"]


class SynthBulk(Workload):
    name = "synth-bulk"
    why = ("synthesis-heavy, resolver idle: grammar sampling, seed derivation, candidate sampling, "
           "addressing; JSONL mostly written; --threads 2")

    def items(self, ctx):
        return ctx.sizes["synth_examples"]

    # Row i depends only on (split, i, seed), so a short single-thread run
    # must equal the head of the timed two-thread output.
    def setup_steps(self, ctx, rep_dir):
        n = ctx.sizes["prefix_rows"]
        return [["synth", "--db", DB, "--grammar", GRAMMAR, "--out", rep_dir, "--splits", "train",
                 "--total", f"{n},0,0", "--threads", "1", "--seed", str(ctx.seed)]]

    def setup_outputs(self, ctx, rep_dir):
        return [f"{rep_dir}/train.jsonl"]

    def pass_steps(self, ctx, inputs, out):
        n = self.items(ctx)
        return [["synth", "--db", DB, "--grammar", GRAMMAR, "--out", out, "--splits", "train",
                 "--total", f"{n},0,0", "--threads", "2", "--seed", str(ctx.seed)]]

    def outputs(self, out):
        return [f"{out}/train.jsonl"]

    def check(self, ctx, inputs, out, checks):
        rows = jsonl_rows(Path(out, "train.jsonl"))
        checks.expect("synth.rows", len(rows) == self.items(ctx), f"{len(rows)} rows")
        bad = [i for i, row in enumerate(rows)
               if not row["target_names"]
               or not set(row["target_names"]) <= {c["name"] for c in row["candidates"]}]
        checks.expect("synth.targets_among_candidates", not bad, f"{len(bad)} rows fail, first {bad[:5]}")
        checks.expect("synth.methods", {row["method"] for row in rows} == SIX_METHODS, "all six methods present")
        with open(Path(inputs, "train.jsonl"), "rb") as handle:
            prefix = handle.read()
        with open(Path(out, "train.jsonl"), "rb") as handle:
            head = handle.read(len(prefix))
        checks.expect("synth.threads_prefix", head == prefix,
                      f"--threads 1 run of {ctx.sizes['prefix_rows']} rows vs head of --threads 2 output")

    # The resolver round trip on the head of the output gives this workload
    # its entity accuracy; it runs after the timed region only.
    def extra_steps(self, ctx, inputs, out, check_dir):
        head = Path(check_dir, "head.jsonl")
        head.parent.mkdir(parents=True, exist_ok=True)
        with open(Path(out, "train.jsonl"), encoding="utf-8") as src, open(head, "w", encoding="utf-8") as dst:
            for _, line in zip(range(ctx.sizes["roundtrip_rows"]), src):
                dst.write(line)
        return [
            ["resolve", "--in", str(head), "--out", f"{check_dir}/preds.jsonl"],
            ["score", "--preds", f"{check_dir}/preds.jsonl", "--gold", str(head), "--out", f"{check_dir}/score.json"],
        ]

    def accuracy(self, out, check_dir):
        return read_json(Path(check_dir, "score.json"))["entity_accuracy_all"]


class AugmentCorpus(Workload):
    name = "augment-corpus"
    why = ("augment-heavy: per-dialog copy plus corpus load/write; resolver stops at exact names "
           "(no edit distance); score indexes the whole gold corpus")

    def items(self, ctx):
        return ctx.sizes["corpus_copies"] * len(self._toy(ctx)[1])

    def _toy(self, ctx) -> tuple[str, list[dict]]:
        with open(ctx.root / TOY_CORPUS, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        first = json.loads(lines[0])
        if "meta" in first:
            return lines[0], [json.loads(line) for line in lines[1:]]
        return "", [json.loads(line) for line in lines]

    def expected_turns(self, ctx) -> int:
        return len(read_json(ctx.root / TOY_EXPECTED)["augmentable"]) * ctx.sizes["corpus_copies"]

    # Copies get seed-dependent ids, and the augmenter derives its
    # randomness from the dialog id, so each seed is a different input.
    def setup_local(self, ctx, rep_dir):
        meta, dialogs = self._toy(ctx)
        Path(rep_dir).mkdir(parents=True, exist_ok=True)
        with open(Path(rep_dir, "corpus.jsonl"), "w", encoding="utf-8") as handle:
            handle.write(meta)
            for copy in range(ctx.sizes["corpus_copies"]):
                for dialog in dialogs:
                    dialog = dict(dialog, id=f"{dialog['id']}~s{ctx.seed}c{copy:03d}")
                    handle.write(json.dumps(dialog, ensure_ascii=False, sort_keys=True) + "\n")

    def setup_outputs(self, ctx, rep_dir):
        return [f"{rep_dir}/corpus.jsonl"]

    def pass_steps(self, ctx, inputs, out):
        return [
            ["augment", "--in", f"{inputs}/corpus.jsonl", "--db", DB, "--grammar", GRAMMAR,
             "--out", f"{out}/aug", "--seed", str(ctx.seed)],
            ["resolve", "--in", f"{out}/aug/records.jsonl", "--kind", "records", "--out", f"{out}/preds.jsonl"],
            ["score", "--preds", f"{out}/preds.jsonl", "--gold", f"{out}/aug/corpus.jsonl",
             "--records", f"{out}/aug/records.jsonl", "--out", f"{out}/score.json"],
        ]

    def outputs(self, out):
        return [f"{out}/aug/corpus.jsonl", f"{out}/aug/records.jsonl", f"{out}/aug/stats.json",
                f"{out}/preds.jsonl", f"{out}/score.json"]

    def check(self, ctx, inputs, out, checks):
        expected = self.expected_turns(ctx)
        stats = read_json(Path(out, "aug", "stats.json"))
        checks.expect("augment.turns_modified", stats["turns_modified"] == expected,
                      f"{stats['turns_modified']} modified, expected {expected}")
        checks.expect("augment.dialogs_total", stats["dialogs_total"] == self.items(ctx),
                      f"{stats['dialogs_total']} dialogs")
        report = read_json(Path(out, "score.json"))
        checks.expect("score.turns_augmented", report["counts"].get("turns_augmented") == expected,
                      f"{report['counts'].get('turns_augmented')} augmented turns scored")
        checks.expect("score.entity_accuracy_augmented", report.get("entity_accuracy_augmented") == 1.0,
                      f"entity_accuracy_augmented={report.get('entity_accuracy_augmented')}")
        _score_checks(report, checks, "score", None)

    def accuracy(self, out, check_dir):
        return read_json(Path(out, "score.json"))["entity_accuracy_all"]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (ResolveMixed(), SynthBulk(), AugmentCorpus())}
