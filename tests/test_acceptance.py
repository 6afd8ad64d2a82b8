"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rP`` to see the per-criterion
lines for passing tests as well.  Criteria with stated runtime budgets
assert them; Monte-Carlo criteria use the stated trial counts and
tolerances.  The tracing criteria run in reduced-K mode (per-bucket sample
counts capped), which is permitted and labeled: the tracing experiments
return one row per trial, each criterion computes its rates from those
rows, and C04 checks through ``capped_sample_count`` that its cap makes
the run non-conforming (a trace report's ``k_conforming`` is False).
"""

import hashlib
import json
import pathlib
import time

import numpy as np
import pytest
from mpmath import mp

from orelearn.core import (
    BOT,
    Ordering3,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
)
from orelearn.encthresh import (
    DISTRIBUTION_FAMILIES,
    labeled_sample,
    make_distribution,
    pac_learn,
    random_concept,
    random_point_mass,
    required_sample_size,
)
from orelearn.games import (
    ChallengePair,
    adversary_success_prob,
    hybrid_schedule,
    synthetic_reduction_win_rate,
)
from orelearn.harness import ExperimentConfig, derive_trial_rng, run
from orelearn.opf import OpfOre, forge_spliced_ciphertext
from orelearn.reident import (
    capped_sample_count,
    completeness_experiment,
    dp_bound,
    estimate_bucket_probs,
    gen_ex,
    concentration_sample_count,
    sample_without,
    soundness_experiment,
)
from orelearn.sq import OracleKeyRecovery, StatOracle, TinyKeyspaceRecovery, sq_learn
from orelearn.strengthen import EscrowCertifier, SignatureCertifier, StrengthenedOre
from orelearn.validsig import (
    Ed25519Scheme,
    SigExampleDistribution,
    random_message,
    representation_error,
    validsig_gen_ex,
    validsig_learn,
    validsig_trace_ex,
)

SEED = 74205
_GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _rng(salt: int = 0):
    return derive_trial_rng(SEED, salt, b"acceptance")


# ---------------------------------------------------------------------------
# 1. Strong correctness identity
# ---------------------------------------------------------------------------


def test_c01_strong_correctness_identity():
    start = time.perf_counter()
    rng = _rng(1)

    escrow = StrengthenedOre(OpfOre(ell=16), EscrowCertifier())
    key_e = escrow.gen(rng)
    rep_e = check_strong_correctness(escrow, key_e, trials=10_000, rng=rng)

    sig = StrengthenedOre(OpfOre(ell=16), SignatureCertifier())
    key_s = sig.gen(rng)
    rep_s = check_strong_correctness(sig, key_s, trials=10_000, rng=rng)

    base = OpfOre(ell=16)
    key_b = base.gen(rng)
    witness = forge_spliced_ciphertext(base, key_b.sk, tag_of=60_000, payload_of=3)
    probe = base.enc(key_b.sk, 30_000)
    witness_fails = (
        base.comp(key_b.params, witness, probe) is Ordering3.GT
        and comp_ciph(base, key_b.sk, witness, probe) is BOT
    )
    rep_b = check_strong_correctness(
        base, key_b, trials=500, rng=rng, extra_pairs=[(witness, probe)]
    )

    elapsed = time.perf_counter() - start
    ok = (
        rep_e.passed
        and rep_e.checked == 10_000
        and rep_s.passed
        and rep_s.checked == 10_000
        and witness_fails
        and not rep_b.passed
        and elapsed < 60
    )
    _criterion(
        1,
        "strong correctness identity (escrow 0, signature 0, weak base fails)",
        ok,
        f"escrow=0/{rep_e.checked} sig=0/{rep_s.checked} "
        f"base_failures={len(rep_b.failures)} t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Weak correctness
# ---------------------------------------------------------------------------


def test_c02_weak_correctness():
    start = time.perf_counter()
    rng = _rng(2)

    small = OpfOre(ell=6)
    key6 = small.gen(rng)
    pairs6 = [(a, b) for a in range(64) for b in range(64)]
    rep6 = check_weak_correctness(small, pairs6, key6)

    big = OpfOre(ell=32)
    key32 = big.gen(rng)
    pairs32 = [tuple(map(int, p)) for p in rng.integers(0, 2**32, size=(100_000, 2))]
    rep32 = check_weak_correctness(big, pairs32, key32)

    elapsed = time.perf_counter() - start
    ok = (
        rep6.passed
        and rep6.checked == 4096
        and rep32.passed
        and rep32.checked == 100_000
        and elapsed < 30
    )
    _criterion(
        2,
        "weak correctness (ell=6 exhaustive, ell=32 random)",
        ok,
        f"ell6=0/{rep6.checked} ell32=0/{rep32.checked} t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. PAC learner error bound
# ---------------------------------------------------------------------------


def test_c03_pac_error_bound():
    start = time.perf_counter()
    alpha = beta = 0.05
    n = required_sample_size(alpha, beta)
    assert n == 60
    scheme = StrengthenedOre(OpfOre(ell=32), EscrowCertifier())
    trials = 200
    rates = {}
    one_sided_every_trial = True
    for family in DISTRIBUTION_FAMILIES:
        good = 0
        for trial in range(trials):
            rng = derive_trial_rng(SEED, trial, b"c03-" + family.encode())
            concept = random_concept(scheme, rng)
            dist = make_distribution(family, concept, rng)
            sample = labeled_sample(concept, dist, n, rng)
            hypothesis = pac_learn(scheme, sample)
            err = dist.exact_error(hypothesis, concept)
            good += err <= alpha
            probes = [x for x, _ in sample] + [dist.sample(rng) for _ in range(50)]
            if any(hypothesis.evaluate(x) > concept.evaluate(x) for x in probes):
                one_sided_every_trial = False
        rates[family] = good / trials
    elapsed = time.perf_counter() - start
    ok = (
        all(rate >= 0.90 for rate in rates.values())
        and one_sided_every_trial
        and elapsed < 600
    )
    detail = " ".join(f"{f}={r:.3f}" for f, r in rates.items())
    _criterion(3, "PAC error bound per distribution family", ok, f"{detail} t={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. Tracing completeness
# ---------------------------------------------------------------------------

_TRACE_SCHEME = None


def _trace_scheme():
    global _TRACE_SCHEME
    if _TRACE_SCHEME is None:
        _TRACE_SCHEME = StrengthenedOre(OpfOre(ell=32), EscrowCertifier())
    return _TRACE_SCHEME


def test_c04_tracing_completeness():
    start = time.perf_counter()
    scheme = _trace_scheme()
    gamma, xi = 0.45, 0.01
    learner = lambda sample: pac_learn(scheme, sample)
    rows = completeness_experiment(
        scheme,
        n=50,
        learner=learner,
        alpha=0.5 - gamma,
        gamma=gamma,
        xi=xi,
        trials=100,
        rng=_rng(4),
        k_cap=250,  # reduced-K mode: labeled non-conforming below
    )
    elapsed = time.perf_counter() - start
    well_spaced = [r for r in rows if r["well_spaced"]]
    good_and_untraced = sum(r["good_and_untraced"] for r in rows) / len(rows)
    accused_ws = sum(r["accused"] is not None for r in well_spaced) / len(well_spaced)
    _, conforming = capped_sample_count(50, gamma, xi, k_cap=250)
    ok = (
        len(rows) == 100
        and good_and_untraced <= 0.05
        and accused_ws >= 0.95
        and conforming is False
        and elapsed < 1200
    )
    _criterion(
        4,
        "tracing completeness (n=50, ell=32, reduced-K labeled)",
        ok,
        f"good&untraced={good_and_untraced:.3f} accused|ws={accused_ws:.3f} t={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Tracing soundness
# ---------------------------------------------------------------------------


def test_c05_tracing_soundness():
    start = time.perf_counter()
    scheme = _trace_scheme()
    gamma, xi = 0.45, 0.01
    learner = lambda sample: pac_learn(scheme, sample)
    rates = {}
    for drop in (1, 25, 50):
        rows = soundness_experiment(
            scheme,
            n=50,
            learner=learner,
            drop_index=drop,
            gamma=gamma,
            xi=xi,
            trials=200,
            rng=_rng(500 + drop),
            k_cap=150,  # reduced-K mode, labeled
        )
        rates[drop] = sum(r["accused"] == drop for r in rows) / len(rows)
    elapsed = time.perf_counter() - start
    ok = all(rate <= 0.02 for rate in rates.values()) and elapsed < 1800
    detail = " ".join(f"i={i}:{r:.3f}" for i, r in rates.items())
    _criterion(5, "tracing soundness (dropped index not accused)", ok, f"{detail} t={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Advantage formula
# ---------------------------------------------------------------------------


def _enumerated_success(p, q):
    win = 0.0
    for r in (p, q):
        for y0 in (0, 1):
            for y1 in (0, 1):
                pr = (r if y0 else 1 - r) * (r if y1 else 1 - r)
                win += 0.25 * pr * (1 if y0 == y1 else 0)
    for y0 in (0, 1):
        for y1 in (0, 1):
            pr = (p if y0 else 1 - p) * (q if y1 else 1 - q)
            win += 0.5 * pr * (1 if y0 != y1 else 0)
    return win


def test_c06_advantage_formula():
    start = time.perf_counter()
    grid = [round(i * 0.05, 2) for i in range(21)]
    grid_ok = all(
        abs(adversary_success_prob(p, q) - _enumerated_success(p, q)) <= 1e-12
        for p in grid
        for q in grid
    )
    mc_ok = True
    gaps = []
    rng = _rng(6)
    for p, q in ((1.0, 0.0), (0.75, 0.25), (0.5, 0.5)):
        rate = synthetic_reduction_win_rate(p, q, 100_000, rng)
        gap = abs(rate - adversary_success_prob(p, q))
        gaps.append(gap)
        mc_ok &= gap <= 0.01
    elapsed = time.perf_counter() - start
    ok = grid_ok and mc_ok and elapsed < 120
    _criterion(
        6,
        "advantage formula (enumeration grid + Monte-Carlo)",
        ok,
        f"max_mc_gap={max(gaps):.4f} t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Hybrid schedule
# ---------------------------------------------------------------------------


def test_c07_hybrid_schedule_exhaustive():
    import itertools

    start = time.perf_counter()
    checked = 0
    ok = True
    for q in range(1, 5):
        sides = list(itertools.combinations(range(10), q))
        for left in sides:
            for right in sides:
                hybrids = hybrid_schedule(ChallengePair(left, right))
                checked += 1
                if hybrids[0] != left or hybrids[-1] != right:
                    ok = False
                if len(hybrids) != 2 * q + 1:
                    ok = False
                for h in hybrids:
                    if any(a >= b for a, b in zip(h, h[1:])):
                        ok = False
                for a, b in zip(hybrids, hybrids[1:]):
                    if sum(x != y for x, y in zip(a, b)) > 1:
                        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _criterion(
        7,
        "hybrid schedule properties (exhaustive q<=4, domain 0..9)",
        ok,
        f"pairs={checked} t={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Estimator constant and concentration
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:n.2")
def test_c08_estimator_constant_and_concentration():
    start = time.perf_counter()
    # the constant: K = ceil((8*10^2/0.1^2) * ln(9*10/0.1)) = ceil(80000 ln 900);
    # cross-checked against a high-precision evaluation
    mp.prec = 100
    k_precise = int(mp.ceil(80000 * mp.log(900)))
    constant_ok = concentration_sample_count(10, 0.1, 0.1) == k_precise == 544192

    # concentration: all n+1 buckets simultaneously within gamma/(4n) of
    # exactly computable per-bucket rates, with frequency >= 1 - xi/2
    scheme = StrengthenedOre(OpfOre(ell=12), EscrowCertifier())
    n, gamma, xi = 8, 0.8, 0.5
    tol = gamma / (4 * n)
    k_exact = concentration_sample_count(n, gamma, xi)
    runs = 0
    simultaneous = 0
    salt = 0
    while runs < 100:
        salt += 1
        rng = derive_trial_rng(SEED, salt, b"c08")
        state, _ = gen_ex(scheme, n, rng)
        if not state.well_spaced:
            continue
        runs += 1
        concept = state.concept
        rates = rng.uniform(0.1, 0.9, size=n + 1)
        bounds = state.bucket_bounds

        import hashlib

        def coin(ct: bytes) -> float:
            h = hashlib.blake2b(ct, key=b"c08-response", digest_size=8).digest()
            return int.from_bytes(h, "big") / 2**64

        def bucket_of(m: int) -> int:
            return int(np.searchsorted(bounds[1:-1], m, side="right"))

        class Synthetic:
            def evaluate(self, x):
                m = concept.scheme.dec(concept.key.sk, x.ct)
                if m is BOT:
                    return 0
                return 1 if coin(x.ct) < rates[bucket_of(m)] else 0

        hyp = Synthetic()
        # exact per-bucket acceptance over every message in each bucket
        truth = np.zeros(n + 1)
        for i in range(n + 1):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            accept = sum(
                coin(concept.scheme.enc(concept.key.sk, m)) < rates[i]
                for m in range(lo, hi)
            )
            truth[i] = accept / (hi - lo)
        est, k_used, conforming, _ = estimate_bucket_probs(
            state, hyp, gamma, xi, rng
        )
        assert conforming and k_used == k_exact
        if np.all(np.abs(est - truth) <= tol):
            simultaneous += 1
    freq = simultaneous / runs
    elapsed = time.perf_counter() - start
    ok = constant_ok and freq >= 1 - xi / 2 and elapsed < 300
    _criterion(
        8,
        "estimator constant and concentration",
        ok,
        f"K={concentration_sample_count(10, 0.1, 0.1)} freq={freq:.2f} "
        f"(need >= {1 - xi / 2}) t={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Differential-privacy bound calculator
# ---------------------------------------------------------------------------


def test_c09_dp_bound_calculator():
    got = dp_bound(0.05, 0.001, 100, 0.1)
    # independent arithmetic path at high precision
    mp.prec = 120
    want = (1 - mp.mpf("0.05") - mp.mpf("0.001")) / 100 - mp.e ** mp.mpf("0.1") * mp.mpf(
        "0.001"
    )
    ok = abs(got - float(want)) <= 1e-12 and f"{got:.12f}".startswith("0.008384")
    _criterion(9, "dp bound calculator", ok, f"value={got:.12f}")


# ---------------------------------------------------------------------------
# 10. SQ learner
# ---------------------------------------------------------------------------


def test_c10_sq_learner():
    start = time.perf_counter()
    alpha = 0.05
    scheme = StrengthenedOre(OpfOre(ell=16), EscrowCertifier())
    bound = 1 + 8 * scheme.params_len() + 16
    every_trial_ok = True
    for trial in range(50):
        rng = derive_trial_rng(SEED, trial, b"c10")
        concept = random_concept(scheme, rng, t=int(rng.integers(1, scheme.domain_size + 1)))
        dist = random_point_mass(concept, 256, rng)
        oracle = StatOracle(concept, dist, alpha, mode="exact")
        recovery = OracleKeyRecovery()
        recovery.register(concept.key)
        hypothesis = sq_learn(oracle, alpha, recovery, scheme)
        err = dist.exact_error(hypothesis, concept)
        if err > alpha or oracle.query_count > bound:
            every_trial_ok = False

    # genuine exhaustive search over a tiny coin space, exercised once
    tiny_scheme = StrengthenedOre(OpfOre(ell=10, coin_len=2), EscrowCertifier())
    rng = derive_trial_rng(SEED, 999, b"c10")
    concept = random_concept(tiny_scheme, rng, t=700)
    dist = random_point_mass(concept, 128, rng)
    oracle = StatOracle(concept, dist, alpha, mode="exact")
    recovery = TinyKeyspaceRecovery(tiny_scheme)
    hypothesis = sq_learn(oracle, alpha, recovery, tiny_scheme)
    tiny_ok = (
        recovery.searched > 0
        and dist.exact_error(hypothesis, concept) <= alpha
    )
    elapsed = time.perf_counter() - start
    ok = every_trial_ok and tiny_ok and elapsed < 300
    _criterion(
        10,
        "SQ learner (50 trials, query bound, tiny-keyspace search)",
        ok,
        f"bound={bound} tiny_searched={recovery.searched} t={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 11. ValidSig
# ---------------------------------------------------------------------------


def test_c11_validsig():
    start = time.perf_counter()
    sig = Ed25519Scheme()
    alpha = beta = 0.05
    n = required_sample_size(alpha, beta)

    good = 0
    for trial in range(200):
        rng = derive_trial_rng(SEED, trial, b"c11-learn")
        state, _ = validsig_gen_ex(sig, 1, 64, rng)
        dist = SigExampleDistribution(state, positive_weight=0.5, rng=rng)
        sample = [
            (x, state.concept.evaluate(x)) for x in (dist.sample(rng) for _ in range(n))
        ]
        rep = validsig_learn(sample)
        good += representation_error(rep, state.concept, dist.positive_mass()) <= alpha
    learn_rate = good / 200

    traced = 0
    for trial in range(200):
        rng = derive_trial_rng(SEED, trial, b"c11-trace")
        state, sample = validsig_gen_ex(sig, 20, 64, rng)
        rep = validsig_learn(sample)
        if rep is not None and validsig_trace_ex(state, rep) is not None:
            traced += 1
    trace_rate = traced / 200

    accusations = 0
    for trial in range(500):
        rng = derive_trial_rng(SEED, trial, b"c11-sound")
        state, sample = validsig_gen_ex(sig, 50, 64, rng)
        rep = validsig_learn(sample_without(state, sample, 25))
        if validsig_trace_ex(state, rep) == 25:
            accusations += 1

    rng = derive_trial_rng(SEED, 0, b"c11-backend")
    sk, vk = sig.gen(rng)
    roundtrip_fail = 0
    reject_fail = 0
    for _ in range(10_000):
        m = random_message(64, rng)
        s = sig.sign(sk, m)
        if not sig.ver(vk, m, s):
            roundtrip_fail += 1
        flipped = bytearray(s)
        pos = int(rng.integers(0, len(s) * 8))
        flipped[pos // 8] ^= 1 << (pos % 8)
        if sig.ver(vk, m, bytes(flipped)):
            reject_fail += 1

    elapsed = time.perf_counter() - start
    ok = (
        learn_rate >= 0.90
        and trace_rate == 1.0
        and accusations == 0
        and roundtrip_fail == 0
        and reject_fail == 0
        and elapsed < 600
    )
    _criterion(
        11,
        "ValidSig learner/tracer/soundness/back-end",
        ok,
        f"learn={learn_rate:.3f} trace={trace_rate:.3f} acc={accusations} "
        f"rt_fail={roundtrip_fail} rej_fail={reject_fail} t={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def test_c12_determinism():
    """Re-runs give identical CSV bodies, and each body matches the SHA-256
    pinned for the same config in perfbench/goldens.json."""
    start = time.perf_counter()
    configs = {
        "c12-correctness-escrow": {"experiment": "correctness", "ell": 16, "trials": 800, "seed": 11},
        "c12-correctness-signature": {
            "experiment": "correctness", "ell": 16, "trials": 400, "seed": 11, "certifier": "signature",
        },
        "c12-pac-all": {"experiment": "pac", "ell": 16, "trials": 10, "seed": 11, "dist": "all"},
        "c12-trace-completeness": {
            "experiment": "trace",
            "mode": "completeness",
            "ell": 32,
            "n": 12,
            "trials": 3,
            "seed": 11,
            "k_cap": 120,
        },
        "c12-trace-soundness": {
            "experiment": "trace",
            "mode": "soundness",
            "ell": 32,
            "n": 12,
            "drop_index": 6,
            "trials": 3,
            "seed": 11,
            "k_cap": 120,
        },
        "c12-games-random": {"experiment": "games", "mode": "random", "ell": 16, "trials": 300, "seed": 11},
        "c12-games-synthetic": {"experiment": "games", "mode": "synthetic", "trials": 20_000, "seed": 11},
        "c12-hybrid": {"experiment": "hybrid", "left": [1, 5, 9], "right": [2, 5, 8], "ell": 4},
        "c12-sq": {"experiment": "sq", "ell": 12, "trials": 3, "seed": 11},
        "c12-validsig-learn": {"experiment": "validsig", "mode": "learn", "ell": 64, "trials": 10, "seed": 11},
        "c12-validsig-forge": {"experiment": "validsig", "mode": "forge", "ell": 64, "trials": 10, "seed": 11},
    }
    goldens = json.loads(_GOLDENS.read_text())["configs"]
    ok = True
    mismatched = []
    for name, raw in configs.items():
        cfg = ExperimentConfig.from_dict(raw)
        first, second = run(cfg), run(cfg)
        if first.csv_trials() != second.csv_trials():
            ok = False
        if first.csv_summary() != second.csv_summary():
            ok = False
        digests = {
            "trials": hashlib.sha256(first.csv_trials().encode()).hexdigest(),
            "summary": hashlib.sha256(first.csv_summary().encode()).hexdigest(),
        }
        if digests != goldens[name]:
            mismatched.append(name)
    elapsed = time.perf_counter() - start
    ok = ok and not mismatched and elapsed < 600
    _criterion(
        12,
        "determinism (identical configs, identical CSV bodies, pinned digests)",
        ok,
        f"configs={len(configs)} golden_mismatches={mismatched} t={elapsed:.0f}s",
    )
