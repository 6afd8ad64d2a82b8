"""Experiment orchestration: strict configs, seeded trials, JSON/CSV reports.

Every experiment is described by an ``ExperimentConfig`` whose canonical
JSON serialization (sorted keys) is hashed to identify the run.  Unknown
keys and mistyped values are rejected so definitions cannot drift silently.
Each trial draws its own random stream from a keyed hash of (master seed,
trial index), making whole runs reproducible bit-for-bit: re-running with
the same config bytes yields identical per-trial rows, and the CSV bodies
exclude wall-clock fields for exactly that reason.

The ``pac``, ``sq`` and ``validsig`` runners draw each trial from its own
stream, so their trials are shared across CPUs by forked children
(``core._tally_shared``) and their rows and aggregates are the serial
bytes.  ``trace`` and ``games`` pass one stream through every trial, so
their trials run one after another (a ``trace`` trial's bucket estimator
still shares its buckets).  ``correctness`` draws every fuzz pair from its
one stream first; the checkers then share the pairs' comparisons.

Exit-code contract used by the CLI: 0 on success, 2 on config errors, 3
when an experiment's gate thresholds fail (for CI gating).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import _rate, _tally_shared, check_strong_correctness, check_weak_correctness
from .encthresh import (
    DISTRIBUTION_FAMILIES,
    POINT_MASS_POINTS,
    hypothesis_error,
    labeled_sample,
    make_distribution,
    pac_learn,
    random_concept,
    random_point_mass,
    required_sample_size,
)
from .games import (
    ChallengePair,
    EscrowKeyLeakAdversary,
    PayloadBitAdversary,
    RandomGuessAdversary,
    ReductionAdversary,
    hybrid_schedule,
    run_static_game,
    synthetic_reduction_win_rate,
    adversary_success_prob,
)
from .opf import OpfOre, forge_spliced_ciphertext
from .reident import (
    capped_sample_count,
    completeness_experiment,
    dp_bound,
    soundness_experiment,
)
from .sq import OracleKeyRecovery, StatOracle, TinyKeyspaceRecovery, sq_learn
from .strengthen import EscrowCertifier, SignatureCertifier, StrengthenedOre
from .validsig import (
    Ed25519Scheme,
    SigExampleDistribution,
    representation_error,
    run_weak_forgery_game,
    validsig_gen_ex,
    validsig_learn,
    validsig_trace_ex,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "derive_trial_rng",
    "run",
    "EXPERIMENTS",
    "CSV_SCHEMA_VERSION",
]

CSV_SCHEMA_VERSION = "orelearn.csv.v1"

# experiment -> {mode: (smallest, largest) workable ell}; the first mode is
# the default.  The largest is where numpy's int64 draws end:
# rng.integers(0, 2**ell + 1) needs ell <= 62 and rng.integers(0, 2**ell)
# needs ell <= 63.  The smallest keeps the games' fixed challenges in the
# domain and distinct: random plays (0, 1, 2, 3); payload and leak play
# left = lo + i * span // 4 against right = left + span // 8, which collide
# below ell 4.  Reduction's bound depends on n (2**ell >= n + 2), so
# validate checks it.
_MODES = {
    "correctness": {None: (1, 63)},
    "pac": {None: (1, 62)},
    "trace": {"completeness": (1, 63), "soundness": (1, 63)},
    "games": {
        "random": (2, 64),
        "payload": (4, 64),
        "leak": (4, 64),
        "reduction": (1, 63),
        "synthetic": (1, 64),
    },
    "hybrid": {None: (1, 64)},
    "sq": {None: (1, 62), "exact": (1, 62), "jitter": (1, 62)},  # statistical-query oracle answer mode
    "validsig": {"learn": (1, 64), "trace": (1, 64), "forge": (1, 64)},
}
EXPERIMENTS = tuple(_MODES)
_SCHEMES = ("opf", "strengthened")
_CERTIFIERS = {"signature": SignatureCertifier, "escrow": EscrowCertifier}
_DISTS = DISTRIBUTION_FAMILIES + ("all",)
_KEYSPACES = {"oracle": 32, "tiny": 2}  # keyspace -> base scheme coin bytes


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


# field annotation (without "| None") -> accepted JSON values; bools are not numbers
_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "tuple": lambda v: isinstance(v, (list, tuple)) and all(map(_TYPE_CHECKS["int"], v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    lam: int = 128  # type-checked and hashed into every report; nothing reads it
    ell: int = 16
    n: int = 50
    alpha: float = 0.05
    beta: float = 0.05
    gamma: float = 0.45
    xi: float = 0.01
    eps: float = 0.1
    trials: int = 100
    seed: int = 0
    scheme: str = "strengthened"
    certifier: str = "escrow"
    dist: str = "uniform"
    mode: str | None = None
    drop_index: int | None = None
    k_cap: int | None = None
    left: tuple | None = None
    right: tuple | None = None
    keyspace: str = "oracle"
    transcripts: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config key")
        if "experiment" not in raw:
            raise ConfigError("experiment", "missing required key")
        for f in dataclasses.fields(cls):
            v = raw.get(f.name, _DEFAULTS[f.name])
            kind, _, optional = f.type.partition(" | ")
            if not (_TYPE_CHECKS[kind](v) or (optional and v is None)):
                raise ConfigError(f.name, f"must be of type {f.type}, got {v!r}")
        # an absent mode is the experiment's first; an unknown experiment fails in validate
        first_mode = next(iter(_MODES.get(raw["experiment"], [None])))
        merged = {**_DEFAULTS, "mode": first_mode, **raw}
        cfg = cls(**{k: (tuple(v) if k in ("left", "right") and v is not None else v) for k, v in merged.items()})
        cfg.validate()
        return cfg

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {EXPERIMENTS}")
        modes = _MODES[self.experiment]
        if self.mode not in modes:
            raise ConfigError("mode", f"must be one of {tuple(modes)}")
        lo, hi = modes[self.mode]
        if not (lo <= self.ell <= hi):
            raise ConfigError(
                "ell", f"must be in [{lo}, {hi}] for {self.experiment} mode {self.mode}"
            )
        if not (0 <= self.seed < 1 << 64):
            raise ConfigError("seed", "must be in [0, 2**64)")
        if self.trials < 0:
            raise ConfigError("trials", "must be >= 0")
        if self.n < 1:
            raise ConfigError("n", "must be >= 1")
        if self.k_cap is not None and self.k_cap < 1:
            raise ConfigError("k_cap", "must be >= 1")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (0 < v < 1):
                raise ConfigError(name, "must lie in (0, 1)")
        if not (0 < self.gamma <= 0.5):
            raise ConfigError("gamma", "must lie in (0, 0.5]")
        if not (0 < self.xi < 1):
            raise ConfigError("xi", "must lie in (0, 1)")
        if not (0 <= self.eps <= 700):  # dp_bound needs a finite float e**eps
            raise ConfigError("eps", "must lie in [0, 700]")
        for name, allowed in (
            ("scheme", _SCHEMES),
            ("certifier", tuple(_CERTIFIERS)),
            ("dist", _DISTS),
            ("keyspace", tuple(_KEYSPACES)),
        ):
            if getattr(self, name) not in allowed:
                raise ConfigError(name, f"must be one of {allowed}")
        if self.experiment == "pac" and self.dist in ("pointmass", "all"):
            if 1 << self.ell < POINT_MASS_POINTS:
                raise ConfigError(
                    "ell", f"pointmass needs 2**ell >= {POINT_MASS_POINTS} distinct messages"
                )
        if self.mode == "reduction" and 1 << self.ell < self.n + 2:
            # a degenerate reduction trial plays the filler (0, ..., n + 1)
            raise ConfigError("ell", "games mode reduction needs 2**ell >= n + 2")
        if self.mode == "leak" and (self.scheme, self.certifier) != ("strengthened", "escrow"):
            raise ConfigError("mode", "leak adversary needs the escrow-strengthened scheme")
        if self.experiment == "trace" and self.mode == "soundness":
            if self.drop_index is None or not (1 <= self.drop_index <= self.n):
                raise ConfigError("drop_index", "must lie in [1, n] for soundness mode")
        if self.experiment == "hybrid":
            if not self.left or not self.right:
                raise ConfigError("left", "hybrid experiment needs left and right vectors")
            try:
                ChallengePair(left=self.left, right=self.right).validate(1 << self.ell)
            except ValueError as exc:
                raise ConfigError("left", str(exc)) from None

    def canonical_json(self) -> str:
        # json writes the left/right tuples as lists
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# field -> default; the required ``experiment`` maps to None
_DEFAULTS = {
    f.name: None if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(ExperimentConfig)
}


def derive_trial_rng(
    master_seed: int, trial_index: int, label: bytes = b""
) -> np.random.Generator:
    """Independent per-trial stream: keyed hash of (seed || index || label)."""
    digest = hashlib.blake2b(
        int(master_seed).to_bytes(8, "big", signed=False)
        + int(trial_index).to_bytes(8, "big", signed=False)
        + label,
        key=b"orelearn-trial-rng",
        digest_size=16,
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _build_scheme(config: ExperimentConfig, coin_len: int = 32):
    base = OpfOre(ell=config.ell, coin_len=coin_len)
    if config.scheme == "opf":
        return base
    return StrengthenedOre(base, _CERTIFIERS[config.certifier]())


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    columns: list
    rows: list
    aggregates: dict
    passed: "bool | None"
    wall_clock: float
    extra: dict = field(default_factory=dict)  # JSON-only payloads (transcripts)
    schema = CSV_SCHEMA_VERSION

    def to_json(self) -> str:
        """Strict JSON: a non-finite float (a rate over no trials) is null."""
        report = {
            "schema": self.schema,
            "library_version": __version__,
            "config": json.loads(self.config.canonical_json()),
            "config_hash": self.config.config_hash(),
            "columns": self.columns,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "passed": self.passed,
            "wall_clock_s": round(self.wall_clock, 3),
            **self.extra,
        }
        # a round trip turns the lenient encoder's NaN/Infinity tokens into None
        finite = json.loads(json.dumps(report), parse_constant=lambda token: None)
        return json.dumps(finite, indent=2, sort_keys=True, allow_nan=False)

    def csv_trials(self) -> str:
        """Per-trial CSV body; excludes wall-clock so re-runs are identical."""
        buf = io.StringIO()
        buf.write(",".join([self.schema, "config=" + self.config.config_hash()]) + "\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_csv_cell(row.get(c)) for c in self.columns) + "\n")
        return buf.getvalue()

    def csv_summary(self) -> str:
        buf = io.StringIO()
        keys = sorted(self.aggregates)
        buf.write(",".join([self.schema, "config=" + self.config.config_hash()]) + "\n")
        buf.write(",".join(keys) + "\n")
        buf.write(",".join(_csv_cell(self.aggregates[k]) for k in keys) + "\n")
        return buf.getvalue()

    def write(self, out_dir, formats=("json", "csv")):
        import pathlib

        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{self.config.experiment}_{self.config.config_hash()}"
        written = []
        if "json" in formats:
            p = out / f"{stem}.json"
            p.write_text(self.to_json())
            written.append(p)
        if "csv" in formats:
            p = out / f"{stem}_trials.csv"
            p.write_text(self.csv_trials())
            written.append(p)
            p = out / f"{stem}_summary.csv"
            p.write_text(self.csv_summary())
            written.append(p)
        return written


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    runner = _RUNNERS[config.experiment]
    result = runner(config)
    columns, rows, aggregates, passed = result[:4]
    extra = result[4] if len(result) > 4 else {}
    if config.trials == 0 and config.experiment not in ("hybrid",):
        passed = None
    return ExperimentReport(
        config=config,
        columns=columns,
        rows=rows,
        aggregates=aggregates,
        passed=passed,
        wall_clock=time.perf_counter() - start,
        extra=extra,
    )


def _trial_rows(trial_row, items) -> list:
    """``[trial_row(item) for item in items]``, the items shared across CPUs
    by ``core._tally_shared``.  So a row may depend only on the config and
    its item: state a trial builds in a child is not carried back."""
    items = list(items)
    rows = _tally_shared(lambda share: {item: trial_row(item) for item in share}, items)
    return [rows[item] for item in items]


def _run_correctness(config: ExperimentConfig):
    scheme = _build_scheme(config)
    rng = derive_trial_rng(config.seed, 0)
    key = scheme.gen(rng)
    rows = []
    columns = ["check", "class", "checked", "failures"]

    pair_budget = min(config.trials, 4096)
    ms = rng.integers(0, scheme.domain_size, size=(pair_budget, 2))
    weak = check_weak_correctness(scheme, [tuple(map(int, p)) for p in ms], key)
    rows.append({"check": "weak", "class": "honest", "checked": weak.checked, "failures": len(weak.failures)})

    extra = []
    if isinstance(scheme, OpfOre):
        lo = scheme.domain_size // 8
        hi = scheme.domain_size - 1 - lo
        witness = forge_spliced_ciphertext(scheme, key.sk, tag_of=hi, payload_of=lo)
        extra = [(witness, scheme.enc(key.sk, (lo + hi) // 2))]
    strong = check_strong_correctness(
        scheme, key, config.trials, derive_trial_rng(config.seed, 1), extra_pairs=extra
    )
    for cls in sorted(set(strong.counts_by_class) | {"all"}):
        failures = (
            len(strong.failures) if cls == "all" else strong.counts_by_class.get(cls, 0)
        )
        rows.append(
            {"check": "strong", "class": cls, "checked": strong.checked, "failures": failures}
        )
    aggregates = {
        "weak_failures": len(weak.failures),
        "strong_failures": len(strong.failures),
        "strong_checked": strong.checked,
    }
    passed = weak.passed and strong.passed
    return columns, rows, aggregates, passed


def _run_pac(config: ExperimentConfig):
    scheme = _build_scheme(config)
    n = required_sample_size(config.alpha, config.beta)
    families = (
        DISTRIBUTION_FAMILIES if config.dist == "all" else (config.dist,)
    )
    columns = ["family", "trial", "n", "error", "good", "one_sided_ok", "hypothesis"]

    def trial_row(item):
        family, trial = item
        rng = derive_trial_rng(config.seed, trial, label=family.encode())
        concept = random_concept(scheme, rng)
        dist = make_distribution(family, concept, rng)
        sample = labeled_sample(concept, dist, n, rng)
        hypothesis = pac_learn(scheme, sample)
        err = hypothesis_error(hypothesis, concept, dist, rng)
        probes = [x for x, _ in sample] + [dist.sample(rng) for _ in range(50)]
        one_sided = all(
            hypothesis.evaluate(x) <= concept.evaluate(x) for x in probes
        )
        return {
            "family": family,
            "trial": trial,
            "n": n,
            "error": err,
            "good": err <= config.alpha,
            "one_sided_ok": one_sided,
            "hypothesis": hypothesis.kind,
        }

    rows = _trial_rows(trial_row, [(f, t) for f in families for t in range(config.trials)])
    rates = {
        f: _rate([r for r in rows if r["family"] == f], lambda r: r["good"]) for f in families
    }
    one_sided_all = all(r["one_sided_ok"] for r in rows)
    aggregates = {f"rate_{f}": r for f, r in rates.items()}
    aggregates["one_sided_all"] = one_sided_all
    passed = one_sided_all and all(r >= 0.90 for r in rates.values())
    return columns, rows, aggregates, passed


def _run_trace(config: ExperimentConfig):
    scheme = _build_scheme(config)
    learner = lambda sample: pac_learn(scheme, sample)
    rng = derive_trial_rng(config.seed, 0)
    # pass alpha = 1/2 - gamma to match the weak-learning tracing regime;
    # the defaults (alpha=0.05, gamma=0.45) already align
    common = (config.gamma, config.xi, config.trials, rng)
    if config.mode == "completeness":
        trials = completeness_experiment(
            scheme, config.n, learner, config.alpha, *common, k_cap=config.k_cap
        )
        accused = lambda r: r["accused"] is not None
        aggregates = {
            "p_good": _rate(trials, lambda r: r["good"]),
            "p_good_and_untraced": _rate(trials, lambda r: r["good_and_untraced"]),
            "p_accused": _rate(trials, accused),
            "p_accused_well_spaced": _rate([r for r in trials if r["well_spaced"]], accused),
        }
        passed = (
            aggregates["p_good_and_untraced"] <= 0.05
            and aggregates["p_accused_well_spaced"] >= 0.95
        )
    else:
        trials = soundness_experiment(
            scheme, config.n, learner, config.drop_index, *common, k_cap=config.k_cap
        )
        dropped = lambda r: r["accused"] == config.drop_index
        aggregates = {
            "p_accuse_dropped": _rate(trials, dropped),
            "p_accuse_dropped_well_spaced": _rate(
                [r for r in trials if r["well_spaced"]], dropped
            ),
            "drop_index": config.drop_index,
        }
        passed = aggregates["p_accuse_dropped"] <= 0.02
    # a fact about the config, so a run of zero trials reports it too
    _, aggregates["k_conforming"] = capped_sample_count(
        config.n, config.gamma, config.xi, config.k_cap
    )
    aggregates["dp_delta_bound"] = dp_bound(config.beta, config.xi, config.n, config.eps)
    columns = ["trial", "well_spaced", "error", "accused", "good_and_untraced"]
    # soundness rows carry no error and no good_and_untraced: their cells stay empty
    rows = [{"trial": t, **{c: r.get(c) for c in columns[1:]}} for t, r in enumerate(trials)]
    return columns, rows, aggregates, passed


def _run_games(config: ExperimentConfig):
    rng = derive_trial_rng(config.seed, 0)
    columns = ["game", "trials", "advantage", "ci_lo", "ci_hi"]
    if config.mode == "synthetic":
        rows = []
        ok = True
        for p, q in ((1.0, 0.0), (0.75, 0.25), (0.5, 0.5)):
            rate = synthetic_reduction_win_rate(p, q, config.trials, rng)
            want = adversary_success_prob(p, q)
            rows.append(
                {
                    "game": f"synthetic(p={p},q={q})",
                    "trials": config.trials,
                    "advantage": rate,
                    "ci_lo": want,
                    "ci_hi": abs(rate - want),
                }
            )
            ok &= abs(rate - want) <= 0.01
        return columns, rows, {"max_gap": max(r["ci_hi"] for r in rows)}, ok

    scheme = _build_scheme(config)
    q = 4
    lo = scheme.domain_size // 8
    span = scheme.domain_size // 2
    left = tuple(lo + i * span // q for i in range(q))
    right = tuple(lo + span // (2 * q) + i * span // q for i in range(q))
    if config.mode == "random":
        adversary = RandomGuessAdversary()
    elif config.mode == "payload":
        adversary = PayloadBitAdversary(ChallengePair(left, right))
    elif config.mode == "leak":
        adversary = EscrowKeyLeakAdversary(OpfOre(config.ell), ChallengePair(left, right))
    else:  # reduction
        learner = lambda sample: pac_learn(scheme, sample)
        adversary = ReductionAdversary(scheme, learner, config.n, max(1, config.n // 2))
    report = run_static_game(
        scheme, adversary, config.trials, rng, keep_transcripts=config.transcripts
    )
    rows = [
        {
            "game": f"static/{config.mode}",
            "trials": config.trials,
            "advantage": report.advantage,
            "ci_lo": report.advantage - report.ci_halfwidth,
            "ci_hi": report.advantage + report.ci_halfwidth,
        }
    ]
    aggregates = {
        "advantage": report.advantage,
        "ci_halfwidth": report.ci_halfwidth,
        "p0": report.p_guess1_given_b0,
        "p1": report.p_guess1_given_b1,
        **{f"flag_{k}": v for k, v in report.flag_counts.items()},
    }
    extra = {"transcripts": report.transcripts} if config.transcripts else {}
    # the leak control must win; the others must show no advantage beyond noise,
    # the reduction too, since its honest learner breaks no tracing soundness
    if config.mode == "leak":
        passed = report.advantage >= 0.9
    else:
        passed = report.advantage <= 0.03 + report.ci_halfwidth
    return columns, rows, aggregates, passed, extra


def _run_hybrid(config: ExperimentConfig):
    pair = ChallengePair(left=config.left, right=config.right)  # validated with the config
    hybrids = hybrid_schedule(pair)
    columns = ["index", "vector"]
    rows = [{"index": i, "vector": " ".join(map(str, h))} for i, h in enumerate(hybrids)]
    q = pair.q
    ascending = all(all(a < b for a, b in zip(h, h[1:])) for h in hybrids)
    adjacent = all(
        sum(x != y for x, y in zip(hybrids[i], hybrids[i + 1])) <= 1
        for i in range(len(hybrids) - 1)
    )
    aggregates = {
        "count": len(hybrids),
        "endpoints_ok": hybrids[0] == pair.left and hybrids[-1] == pair.right,
        "ascending_ok": ascending,
        "adjacent_ok": adjacent,
    }
    passed = bool(
        aggregates["endpoints_ok"] and ascending and adjacent and len(hybrids) == 2 * q + 1
    )
    return columns, rows, aggregates, passed


def _run_sq(config: ExperimentConfig):
    scheme = _build_scheme(config, coin_len=_KEYSPACES[config.keyspace])
    columns = ["trial", "queries", "recovered_t", "true_t", "error", "hypothesis"]
    bound = 1 + 8 * scheme.params_len() + config.ell

    def trial_row(trial):
        rng = derive_trial_rng(config.seed, trial)
        concept = random_concept(scheme, rng, t=int(rng.integers(1, scheme.domain_size + 1)))
        dist = random_point_mass(concept, min(256, scheme.domain_size), rng)
        oracle = StatOracle(concept, dist, config.alpha, mode=config.mode or "exact", rng=rng)
        if config.keyspace == "tiny":
            recovery = TinyKeyspaceRecovery(scheme)
        else:
            recovery = OracleKeyRecovery()
            recovery.register(concept.key)
        hypothesis = sq_learn(oracle, config.alpha, recovery, scheme)
        return {
            "trial": trial,
            "queries": oracle.query_count,
            "recovered_t": getattr(hypothesis, "t", None),
            "true_t": concept.t,
            "error": oracle.error(hypothesis),
            "hypothesis": hypothesis.kind,
        }

    rows = _trial_rows(trial_row, range(config.trials))
    all_good = all(r["error"] <= config.alpha and r["queries"] <= bound for r in rows)
    aggregates = {"query_bound": bound, "all_good": all_good}
    return columns, rows, aggregates, all_good


def _run_validsig(config: ExperimentConfig):
    sig = Ed25519Scheme()
    columns = ["trial", "outcome", "detail"]
    n = required_sample_size(config.alpha, config.beta)

    def learn(rng):
        state, _ = validsig_gen_ex(sig, 1, config.ell, rng)
        dist = SigExampleDistribution(state, positive_weight=0.5, rng=rng)
        rep = validsig_learn(labeled_sample(state.concept, dist, n, rng))
        err = representation_error(rep, state.concept, dist.positive_mass())
        return err <= config.alpha, err

    def trace(rng):
        state, sample = validsig_gen_ex(sig, config.n, config.ell, rng)
        accused = validsig_trace_ex(state, validsig_learn(sample))
        return accused is not None, accused

    def forge(rng):
        result = run_weak_forgery_game(sig, validsig_learn, config.n, config.ell, rng)
        return result["value"], result.get("reason", "")

    play = {"learn": learn, "trace": trace, "forge": forge}[config.mode]

    def trial_row(trial):
        outcome, detail = play(derive_trial_rng(config.seed, trial))
        return {"trial": trial, "outcome": outcome, "detail": detail}

    rows = _trial_rows(trial_row, range(config.trials))
    if config.mode == "forge":
        # the honest learner must never win the weak forgery game
        wins = sum(r["outcome"] for r in rows)
        return columns, rows, {"wins": wins}, wins == 0
    rate = _rate(rows, lambda r: r["outcome"])
    if config.mode == "learn":
        return columns, rows, {"success_rate": rate}, rate >= 0.90
    return columns, rows, {"traced_rate": rate}, rate == 1.0


_RUNNERS = {
    "correctness": _run_correctness,
    "pac": _run_pac,
    "trace": _run_trace,
    "games": _run_games,
    "hybrid": _run_hybrid,
    "sq": _run_sq,
    "validsig": _run_validsig,
}
