"""Workloads, metric names and pinned golden configs of the orelearn benchmark.

Shared by ``run.py`` (the benchmark), ``child.py`` (one repetition) and the
smoke tests, so every metric name and trial count lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # orelearn CLI arguments, without --trials, --seed and --out
    trials: int  # trials per repetition; part of the config hash, so of the goldens
    ell: int  # plaintext bits, the denominator of opf.tag.descent_ratio
    rows_per_trial: "int | None"  # data rows per trial in _trials.csv, None if not fixed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trace-soundness",
            ("trace", "--mode", "soundness", "--ell", "32", "--n", "50",
             "--drop-index", "25", "--k-cap", "150"),
            trials=1,
            ell=32,
            rows_per_trial=1,
        ),
        Workload(
            "correctness-signature",
            ("correctness", "--ell", "16", "--certifier", "signature"),
            trials=1000,
            ell=16,
            rows_per_trial=None,
        ),
        Workload(
            "sq-oracle",
            ("sq", "--ell", "16"),
            trials=20,
            ell=16,
            rows_per_trial=1,
        ),
    )
}

DEFAULT_SEED = 0
HELD_OUT_SEED = 9176  # pinned, but not used while tuning a change
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# name -> (unit, better, bound)
END_TO_END = {
    "trials_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.03),
    "ok_share": ("share", "higher", 0.01),
}

# Layers timed by the traced run: each gets <layer>.calls, .self_s and .us_per_call.
LAYERS = (
    "opf.split_fraction",
    "opf.tag",
    "opf.enc",
    "opf.dec",
    "opf.comp",
    "strengthen.verify",
    "strengthen.enc",
    "strengthen.dec",
    "strengthen.comp",
    "strengthen.gen",
    "core.fuzz_sample",
    "core.comp_ciph",
    "encthresh.hyp_eval",
    "encthresh.concept_eval",
    "encthresh.dist_sample",
    "encthresh.pac_learn",
    "reident.estimate",
    "reident.gen_ex",
    "sq.recover",
    "sq.query",
)
LAYER_STATS = {"calls": "count", "self_s": "s", "us_per_call": "us"}

# name -> unit; derived per-layer figures beyond the three stats above
LAYER_EXTRAS = {
    "opf.tag.descent_ratio": "ratio",
    "strengthen.verify.calls_per_check": "ratio",
    "strengthen.dec.bot_ratio": "ratio",
    "strengthen.comp.bot_ratio": "ratio",
    "core.check_weak.self_s": "s",
    "core.check_strong.self_s": "s",
    "reident.trial_s.p50": "s",
    "reident.trial_s.p90": "s",
    "sq.keys_searched": "count",
    "harness.run.self_s": "s",
    "harness.write_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {
        f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in LAYER_STATS.items()
    }
    units.update(LAYER_EXTRAS)
    return units


# The 11 configs the acceptance suite's determinism criterion (C12) runs, plus
# the two dropped workload shapes (see NOTES.md), whose speed is not timed.
# Their CSV bodies are pinned in goldens.json and checked by
# ``run.py --check-goldens``.
GOLDEN_CONFIGS = {
    "c12-correctness-escrow": {"experiment": "correctness", "ell": 16, "trials": 800, "seed": 11},
    "c12-correctness-signature": {
        "experiment": "correctness", "ell": 16, "trials": 400, "seed": 11,
        "certifier": "signature",
    },
    "c12-pac-all": {"experiment": "pac", "ell": 16, "trials": 10, "seed": 11, "dist": "all"},
    "c12-trace-completeness": {
        "experiment": "trace", "mode": "completeness", "ell": 32, "n": 12, "trials": 3,
        "seed": 11, "k_cap": 120,
    },
    "c12-trace-soundness": {
        "experiment": "trace", "mode": "soundness", "ell": 32, "n": 12, "drop_index": 6,
        "trials": 3, "seed": 11, "k_cap": 120,
    },
    "c12-games-random": {"experiment": "games", "mode": "random", "ell": 16, "trials": 300, "seed": 11},
    "c12-games-synthetic": {"experiment": "games", "mode": "synthetic", "trials": 20_000, "seed": 11},
    "c12-hybrid": {"experiment": "hybrid", "left": [1, 5, 9], "right": [2, 5, 8], "ell": 4},
    "c12-sq": {"experiment": "sq", "ell": 12, "trials": 3, "seed": 11},
    "c12-validsig-learn": {"experiment": "validsig", "mode": "learn", "ell": 64, "trials": 10, "seed": 11},
    "c12-validsig-forge": {"experiment": "validsig", "mode": "forge", "ell": 64, "trials": 10, "seed": 11},
    "pac-mixed": {"experiment": "pac", "ell": 32, "dist": "all", "trials": 100, "seed": 0},
    "sq-tinykeys": {"experiment": "sq", "ell": 10, "keyspace": "tiny", "trials": 2, "seed": 0},
}
