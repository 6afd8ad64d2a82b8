#!/usr/bin/env python3
"""Closed-loop benchmark of seeded orelearn experiment configs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trace-soundness --seed 0 --seconds 20 --trace 0

One client, one process, one thread: each repetition spawns a fresh
interpreter (``child.py``) that imports orelearn from the checkout's
``src`` and calls ``orelearn.cli.main`` once with ``--out`` pointed at a
scratch directory, and the next repetition starts only after it exits.
Repetitions repeat until ``--seconds`` have passed (at least three).

Every repetition is checked: the CLI must exit 0 (its gate passed), write
the expected number of ``_trials.csv`` rows, and write a CSV body whose
SHA-256 equals the pinned golden for that seed (``goldens.json``), or, for a
seed with no golden, the digest of the run's first repetition.  A run at a
seed with no golden also makes one untimed repetition at the default seed
and checks it against that seed's golden.  Every check counts toward
``attempted`` and ``failed``.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics as medians over repetitions.  Throughput and set-up time are wall
times rescaled by a reference loop that each child times just before its
work, to a host on which that loop takes ``REFERENCE_S``.  With
``--trace 1`` traced and untraced repetitions alternate, their digests must
agree, and the last line reports the per-layer metrics of the traced ones.
The line before the last records the environment and the raw figures of
every repetition, which also go to ``.perfbench_out/<workload>/result.json``.

``--check-goldens`` re-runs every pinned config once and compares digests;
``--pin-goldens`` rewrites ``goldens.json`` from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    END_TO_END,
    GOLDEN_CONFIGS,
    LAYERS,
    PINNED_SEEDS,
    WORKLOADS,
    per_layer_units,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"

MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# Reported times are rescaled to a host on which child.py's reference loop
# takes this long (about its fastest time on a quiet 2-CPU Xeon).
REFERENCE_S = 0.06


def spawn(spec: dict) -> dict:
    """Run child.py once; return its result plus ``setup_s``, or an ``error``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def run_rep(workload, seed: int, traced: bool, index: int, timed: bool = True) -> dict:
    """One repetition: spawn, time, and check the CSV it writes."""
    rep_dir = OUT / workload.name / f"rep{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    trials = workload.trials
    argv = [*workload.argv, "--trials", str(trials), "--seed", str(seed), "--out", str(rep_dir)]
    spec = {"argv": argv, "trace": traced, "spans_dir": str(OUT / workload.name / "spans")}
    result = spawn(spec)
    rep = {
        "seed": seed, "timed": timed, "traced": traced,
        "ok": False, "error": result.get("error"), "digest": None,
    }
    if rep["error"] is None:
        rep.update(
            setup_s=result["setup_s"],
            main_s=result["main_s"],
            reference_s=result["reference_s"],
            rss_mb=result["maxrss_kb"] / 1024.0,
            trace=result.get("trace"),
        )
        csvs = sorted(rep_dir.glob("*_trials.csv"))
        if result["rc"] != 0:
            rep["error"] = f"cli exit code {result['rc']}"
        elif len(csvs) != 1:
            rep["error"] = f"expected one _trials.csv, found {len(csvs)}"
        else:
            body = csvs[0].read_bytes()
            rep["digest"] = hashlib.sha256(body).hexdigest()
            rows = body.count(b"\n") - 2  # schema line and header
            want = trials * workload.rows_per_trial if workload.rows_per_trial else None
            if want is not None and rows != want:
                rep["error"] = f"{rows} trial rows, expected {want}"
            else:
                rep["ok"] = True
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def golden_digest(goldens: dict, workload, seed: int) -> "str | None":
    pinned = goldens.get("workloads", {}).get(workload.name)
    if not pinned or pinned["trials"] != workload.trials:
        return None
    return pinned["seeds"].get(str(seed))


def check_digest(rep: dict, want: "str | None", against: str):
    """Fail ``rep`` if it wrote a CSV body whose digest is not ``want``."""
    if rep["digest"] is not None and rep["digest"] != want:
        rep["ok"] = False
        rep["error"] = f"CSV digest differs from {against}"


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cryptography": metadata.version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    """Closed loop of repetitions for ``seconds``; traced and untraced alternate under trace."""
    goldens = load_goldens()
    reference = golden_digest(goldens, workload, seed)
    pinned = reference is not None
    reps = []
    if not pinned:
        # Repetitions at this seed can only agree with each other, so one
        # untimed repetition at the default seed ties the program to a golden.
        check = run_rep(workload, DEFAULT_SEED, False, "-golden", timed=False)
        check_digest(check, golden_digest(goldens, workload, DEFAULT_SEED), "golden")
        reps.append(check)
    deadline = time.monotonic() + seconds
    timed = []
    while True:
        rep = run_rep(workload, seed, trace and len(timed) % 2 == 1, len(timed))
        if reference is None:
            reference = rep["digest"]
        else:
            check_digest(rep, reference, "golden" if pinned else "first repetition")
        timed.append(rep)
        untraced = sum(not r["traced"] for r in timed)
        enough = (untraced >= 1 and len(timed) >= 2) if trace else untraced >= MIN_REPS
        if enough and time.monotonic() >= deadline:
            break
    reps += timed
    return {"reps": reps, "reference": reference, "pinned": pinned}


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end_metrics(run: dict, trials: int) -> dict:
    """Medians over repetitions, times rescaled by each child's reference loop.

    On a shared host the same work runs up to 1.8x slower for minutes at a
    time; the reference loop, timed in the same child just before, slows
    alike, so the ratio reads the program's own cost.
    """
    timed = [r for r in run["reps"] if r["timed"] and not r["traced"] and "main_s" in r]
    main_ratio = _median(r["main_s"] / r["reference_s"] for r in timed)
    return {
        "trials_per_s": trials / (main_ratio * REFERENCE_S) if main_ratio else 0.0,
        "setup_s": _median(r["setup_s"] / r["reference_s"] for r in timed) * REFERENCE_S,
        "peak_rss_mb": _median(r["rss_mb"] for r in timed),
        "ok_share": sum(r["ok"] for r in run["reps"]) / len(run["reps"]),
    }


def layer_metrics(snapshot: dict, ell: int) -> dict:
    """Per-layer figures of one traced repetition (trial times and overhead excluded)."""
    stats, counts = snapshot["stats"], snapshot["counts"]

    def stat(name):
        return stats.get(name, [0, 0.0, 0.0])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        calls, total, self_s = stat(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.us_per_call"] = ratio(total * 1e6, calls)
    out["opf.tag.descent_ratio"] = ratio(stat("opf.split_fraction")[0], ell * stat("opf.tag")[0])
    checks = 2 * stat("strengthen.comp")[0] + stat("strengthen.dec")[0]
    out["strengthen.verify.calls_per_check"] = ratio(stat("strengthen.verify")[0], checks)
    for op in ("dec", "comp"):
        out[f"strengthen.{op}.bot_ratio"] = ratio(
            counts.get(f"strengthen.{op}.bot", 0), stat(f"strengthen.{op}")[0]
        )
    out["core.check_weak.self_s"] = stat("core.check_weak")[2]
    out["core.check_strong.self_s"] = stat("core.check_strong")[2]
    out["sq.keys_searched"] = counts.get("sq.keys_searched", 0)
    out["harness.run.self_s"] = stat("harness.run")[2]
    out["harness.write_s"] = stat("harness.write")[1]
    out["cli.main.self_s"] = stat("cli.main")[2]
    return out


def per_layer_report(run: dict, ell: int) -> dict:
    traced = [r for r in run["reps"] if r["traced"] and r.get("trace")]
    per_rep = [layer_metrics(r["trace"], ell) for r in traced]
    trial_s = [t for r in traced for t in r["trace"]["trial_s"]]
    out = {}
    for name in per_layer_units():
        if name.startswith("reident.trial_s.") or name == "trace.overhead_ratio":
            continue
        out[name] = _median(m[name] for m in per_rep)
    out["reident.trial_s.p50"] = _median(trial_s)
    out["reident.trial_s.p90"] = (
        statistics.quantiles(trial_s, n=10)[-1] if len(trial_s) > 1 else _median(trial_s)
    )
    plain = [r["main_s"] for r in run["reps"] if r["timed"] and not r["traced"] and "main_s" in r]
    traced_s = [r["main_s"] for r in traced]
    out["trace.overhead_ratio"] = (
        _median(traced_s) / _median(plain) if plain and traced_s else 0.0
    )
    return out


def bench(args) -> int:
    workload = WORKLOADS[args.workload]
    trials = workload.trials
    shutil.rmtree(OUT / workload.name, ignore_errors=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        values = per_layer_report(run, workload.ell)
        units = per_layer_units()
    else:
        values = end_to_end_metrics(run, trials)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    attempted = len(run["reps"])
    failed = sum(not r["ok"] for r in run["reps"])
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trials_per_rep": trials,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "environment": env,
        "reference_digest": run["reference"],
        "golden_pinned": run["pinned"],
        "reps": [
            {k: v for k, v in r.items() if k != "trace"} for r in run["reps"]
        ],
    }
    (OUT / workload.name).mkdir(parents=True, exist_ok=True)
    (OUT / workload.name / "result.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def golden_runs() -> dict:
    """Digests of every pinned config under the current program."""
    digests = {"workloads": {}, "configs": {}}
    for workload in WORKLOADS.values():
        seeds = {}
        for seed in PINNED_SEEDS:
            rep = run_rep(workload, seed, False, 0)
            if not rep["ok"]:
                raise SystemExit(f"{workload.name} seed {seed}: {rep['error']}")
            seeds[str(seed)] = rep["digest"]
        digests["workloads"][workload.name] = {"trials": workload.trials, "seeds": seeds}
    result = spawn({"configs": GOLDEN_CONFIGS})
    if "error" in result:
        raise SystemExit(f"golden configs: {result['error']}")
    digests["configs"] = result["digests"]
    return digests


def check_goldens() -> int:
    want, got = load_goldens(), golden_runs()
    mismatches = []
    for section in ("workloads", "configs"):
        for name, value in got[section].items():
            if want.get(section, {}).get(name) != value:
                mismatches.append(f"{section}/{name}")
    for name in mismatches:
        print(f"MISMATCH {name}")
    total = len(got["workloads"]) + len(got["configs"])
    print(f"goldens: {total - len(mismatches)}/{total} match")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check-goldens", action="store_true")
    mode.add_argument("--pin-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "orelearn" / "cli.py").is_file():
        print(f"no orelearn sources under {SRC}; run from an orelearn checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in [0, 2**64)")
    if args.check_goldens:
        return check_goldens()
    if args.pin_goldens:
        GOLDENS.write_text(json.dumps(golden_runs(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDENS}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
