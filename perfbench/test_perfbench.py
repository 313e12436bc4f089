"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.  The
end-to-end tests use the smoke sizes, so all three workloads finish in
seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import PER_LAYER, SUBCOMMANDS  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def by_workload(result: dict) -> dict[str, dict[str, float]]:
    split: dict[str, dict[str, float]] = {}
    for key, entry in result["metrics"].items():
        workload, name = key.split(".", 1)
        split.setdefault(workload, {})[name] = entry["value"]
    return split


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_end_to_end() -> dict:
    code, stdout = bench("--workload", "all", "--smoke", "--seed", "0", "--trace", "0")
    assert code == 0, stdout
    return last_json(stdout)


@pytest.fixture(scope="module")
def smoke_traced() -> dict:
    code, stdout = bench("--workload", "all", "--smoke", "--seed", "0", "--trace", "1")
    assert code == 0, stdout
    return last_json(stdout)


def test_declaration_matches_code(declared):
    # Every declared workload is one the code runs; synth-bulk is runnable but not declared.
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values() if w.name != "synth-bulk"]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == PER_LAYER
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    for metric in declared["end_to_end"] + declared["per_layer"] + declared["workloads"]:
        assert NAME_RE.match(metric["name"]) and len(metric["name"]) <= 64


def test_every_end_to_end_metric_emitted(smoke_end_to_end, declared):
    result = smoke_end_to_end
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = by_workload(result)
    assert set(metrics) == set(WORKLOADS)
    for workload, values in metrics.items():
        assert set(values) == {m["name"] for m in declared["end_to_end"]}, workload
        assert all(v > 0 for v in values.values()), (workload, values)
        assert values["entity_accuracy"] == 1.0
    for key, entry in result["metrics"].items():
        assert NAME_RE.match(key)
        assert entry["unit"] == END_TO_END[key.split(".", 1)[1]]


def test_every_per_layer_metric_emitted(smoke_traced, declared):
    result = smoke_traced
    assert result["correct"] and result["failed"] == 0
    for workload, values in by_workload(result).items():
        assert set(values) == {m["name"] for m in declared["per_layer"]}, workload
        assert values["failed_share"] == 0
        assert values["trace.overhead_ratio"] > 0


def test_traced_layers_split_as_designed(smoke_traced):
    metrics = by_workload(smoke_traced)
    mixed, bulk, augment = metrics["resolve-mixed"], metrics["synth-bulk"], metrics["augment-corpus"]
    assert mixed["resolver.edit_distance.calls"] > 0
    assert augment["resolver.edit_distance.calls"] == 0
    assert augment["resolver.evidence.exact_name"] == augment["resolver.predict_names.calls"] > 0
    for values in (mixed, bulk):
        assert all(v == 0 for k, v in values.items() if k.startswith("augmenter."))
    assert augment["augmenter.turns_modified"] > 0
    assert bulk["resolver.predict_names.calls"] == 0
    assert bulk["grammar.sample.calls"] > 0 and bulk["seeding.derive_seed.calls"] > 0
    assert all(mixed[f"resolver.predict_names.{m}.mean_ms"] > 0
               for m in ("exact", "positional", "partial", "typo", "multiple", "attribute"))
    for workload, values in metrics.items():
        ran = {c for c in SUBCOMMANDS if values[f"cli.{c}.s"] > 0}
        assert ran == {"resolve-mixed": {"resolve", "score"}, "synth-bulk": {"synth"},
                       "augment-corpus": {"augment", "resolve", "score"}}[workload]


def test_checks_pass_at_a_second_seed():
    code, stdout = bench("--workload", "all", "--smoke", "--seed", "7", "--trace", "0")
    assert code == 0
    result = last_json(stdout)
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    code, stdout = bench("--workload", "resolve-mixed", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not stdout.strip().endswith("}")


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    totals = tracer.totals()
    assert totals["leaf"].calls == 2 and totals["outer"].calls == 1
    assert totals["outer"].total_s >= totals["leaf"].total_s + 0.01
    assert totals["outer"].self_s == pytest.approx(totals["outer"].total_s - totals["leaf"].total_s)
    rows = list(tracer.span_rows())
    outer_id = next(r["id"] for r in rows if r["name"] == "outer")
    assert [r["parent"] for r in rows if r["name"] == "leaf"] == [outer_id, outer_id]


def test_parent_stacks_are_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap("inner", lambda: barrier.wait())
    outer = tracer.wrap("outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    rows = list(tracer.span_rows())
    parents = {r["id"]: r["parent"] for r in rows}
    for row in rows:
        if row["name"] == "inner":
            # an inner span's parent is the outer span of its own thread
            assert row["parent"].split(".")[0] == row["id"].split(".")[0]
            assert parents[row["parent"]] is None
    assert tracer.totals()["inner"].calls == 2


def test_install_patches_imported_names_and_uninstall_restores():
    import disambig.cli  # noqa: F401
    from disambig import grammar, seeding, synthesizer

    originals = (seeding.derive_seed, grammar.sample, synthesizer.sample, synthesizer.derive_seed)
    tracer = Tracer()
    missing = tracer.install({"seeding": ("derive_seed",), "grammar": ("sample",), "nope": ("x",)})
    try:
        assert missing == ["nope.x"]
        assert synthesizer.derive_seed is seeding.derive_seed is not originals[0]
        assert synthesizer.sample is grammar.sample is not originals[1]
        seeding.derive_seed("a", 1)
        assert tracer.totals()["seeding.derive_seed"].calls == 1
    finally:
        tracer.uninstall()
    assert (seeding.derive_seed, grammar.sample, synthesizer.sample, synthesizer.derive_seed) == originals
