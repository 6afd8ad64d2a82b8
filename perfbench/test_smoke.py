"""Smoke tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at its pinned trial count (about a second a
repetition) at the default seed, so every repetition is checked against
its pinned golden.  The tests check that CSV digests agree across
repetitions and across two runs, that traced and untraced repetitions write
identical CSV bodies, that a run at an unpinned seed still checks the
default seed's golden, that a wrong golden fails the run, that the printed
metric names are the ones BENCHMARK.json declares, and that the benchmark
refuses to run without the orelearn sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import DEFAULT_SEED, END_TO_END, WORKLOADS, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNPINNED_SEED = 1

# Metric names as the benchmark's specification lists them.
NAMED_METRICS = (
    "trials_per_s", "setup_s", "peak_rss_mb",
    "opf.split_fraction.calls", "opf.tag.self_s", "opf.tag.descent_ratio",
    "opf.enc.us_per_call", "opf.dec.calls", "opf.comp.calls",
    "strengthen.verify.calls", "strengthen.verify.calls_per_check",
    "strengthen.enc.calls", "strengthen.dec.bot_ratio", "strengthen.comp.bot_ratio",
    "strengthen.gen.calls", "core.fuzz_sample.calls", "core.comp_ciph.calls",
    "core.check_weak.self_s", "core.check_strong.self_s",
    "encthresh.hyp_eval.calls", "encthresh.concept_eval.calls",
    "encthresh.dist_sample.calls", "encthresh.pac_learn.calls",
    "reident.estimate.self_s", "reident.gen_ex.calls",
    "reident.trial_s.p50", "reident.trial_s.p90",
    "sq.recover.calls", "sq.query.calls", "sq.keys_searched",
    "harness.run.self_s", "harness.write_s", "cli.main.self_s",
    "trace.overhead_ratio",
)


def bench(workload: str, trace: int, seed: int = DEFAULT_SEED, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def digests(detail: dict, traced: bool) -> set:
    return {r["digest"] for r in detail["reps"] if r["traced"] == traced}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_runs_are_correct_and_repeatable(workload):
    detail, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == list(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["golden_pinned"]
    first = digests(detail, False)
    assert len(first) == 1 and None not in first
    again, _ = bench(workload, 0)
    assert digests(again, False) == first
    env = detail["environment"]
    assert {"python", "numpy", "cryptography", "nproc", "cpu_model",
            "loadavg_start", "loadavg_end"} <= set(env)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_matches_untraced(workload):
    detail, result = bench(workload, 1)
    assert result["correct"]
    assert digests(detail, True) == digests(detail, False)
    assert len(digests(detail, True)) == 1
    assert list(result["metrics"]) == list(per_layer_units())
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["cli.main.self_s"]["value"] > 0


def test_unpinned_seed_still_checks_a_golden():
    detail, result = bench("sq-oracle", 0, seed=UNPINNED_SEED)
    assert result["correct"] and not detail["golden_pinned"]
    check = [r for r in detail["reps"] if not r["timed"]]
    assert [(r["seed"], r["ok"]) for r in check] == [(DEFAULT_SEED, True)]
    assert result["attempted"] == len(detail["reps"])


def test_wrong_golden_fails_the_run():
    copy = ROOT / ".perfbench_out" / "tampered"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    goldens = json.loads((copy / "perfbench" / "goldens.json").read_text())
    goldens["workloads"]["sq-oracle"]["seeds"][str(DEFAULT_SEED)] = "0" * 64
    (copy / "perfbench" / "goldens.json").write_text(json.dumps(goldens))
    try:
        pinned, pinned_result = bench("sq-oracle", 0, root=copy)
        _, unpinned_result = bench("sq-oracle", 0, seed=UNPINNED_SEED, root=copy)
    finally:
        shutil.rmtree(copy)
    assert not pinned_result["correct"]
    assert pinned_result["failed"] == pinned_result["attempted"]
    assert pinned_result["metrics"]["ok_share"]["value"] == 0
    assert not unpinned_result["correct"] and unpinned_result["failed"] == 1


def test_metric_names_match_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    } == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    declared = set(END_TO_END) | set(per_layer_units())
    assert set(NAMED_METRICS) <= declared


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sq-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
