#!/usr/bin/env python3
"""Reidentifying a training example from a learned hypothesis.

The generator draws n uniform messages, encrypts them, and labels them by
the middle threshold.  Whatever an accurate learner outputs, its
acceptance probability must drop somewhere between adjacent plaintext
buckets; the tracer estimates per-bucket acceptance on fresh encryptions
and accuses the sample index separating the first big drop.  Run on the
full sample, the accusation lands on the learner's anchor example; run on
a sample with one example replaced by junk, that example is never accused.
This tension is exactly what rules out differentially private learners,
quantified by the delta bound at the end.
"""

import numpy as np

from orelearn.encthresh import pac_learn
from orelearn.opf import OpfOre
from orelearn.reident import (
    completeness_experiment,
    dp_bound,
    gen_ex,
    sample_without,
    soundness_experiment,
    trace_ex,
)
from orelearn.strengthen import EscrowCertifier, StrengthenedOre

rng = np.random.default_rng(23)
scheme = StrengthenedOre(OpfOre(ell=32), EscrowCertifier())
gamma, xi = 0.45, 0.05
n = 30
learner = lambda sample: pac_learn(scheme, sample)

print("=== one run, in detail (reduced-K estimates) ===")
state, sample = gen_ex(scheme, n, rng)
hypothesis = learner(sample)
verdict = trace_ex(state, hypothesis, gamma, xi, rng, k_cap=300)
anchor_m = scheme.dec(state.concept.key.sk, hypothesis.anchor)
print(f"learner anchored at plaintext {anchor_m}")
accused_m = int(state.raw_messages[verdict.accused - 1])
print(f"tracer accused sample index {verdict.accused}, which encrypts {accused_m}")
print(f"bucket estimates around the drop: "
      f"{np.round(verdict.estimates[max(0, verdict.accused_sorted - 2): verdict.accused_sorted + 2], 3)}")

print()
print("=== completeness: good hypotheses get traced ===")
rows = completeness_experiment(
    scheme, n, learner, alpha=0.5 - gamma, gamma=gamma, xi=xi, trials=15, rng=rng, k_cap=200
)
p_good = sum(r["good"] for r in rows) / len(rows)
p_good_and_untraced = sum(r["good_and_untraced"] for r in rows) / len(rows)
p_accused = sum(r["accused"] is not None for r in rows) / len(rows)
print(f"Pr[error <= {0.5 - gamma:.2f}]   = {p_good:.2f}")
print(f"Pr[good and untraced]   = {p_good_and_untraced:.2f}")
print(f"Pr[some index accused]  = {p_accused:.2f}")

print()
print("=== soundness: the dropped example is not accused ===")
drop = 7
rows = soundness_experiment(
    scheme, n, learner, drop_index=drop, gamma=gamma, xi=xi, trials=15, rng=rng, k_cap=200
)
p_accuse_dropped = sum(r["accused"] == drop for r in rows) / len(rows)
print(f"Pr[accuse dropped index {drop}] = {p_accuse_dropped:.2f}")
state, sample = gen_ex(scheme, n, rng)
hypothesis = learner(sample_without(state, sample, drop))
verdict = trace_ex(state, hypothesis, gamma, xi, rng, k_cap=200)
print(f"single run: accused {verdict.accused} (dropped index was {drop})")

print()
print("=== the differential-privacy consequence ===")
beta, xi_dp, n_dp, eps = 0.05, 0.001, 100, 0.1
delta = dp_bound(beta, xi_dp, n_dp, eps)
print(f"with beta={beta}, xi={xi_dp}, n={n_dp}, eps={eps}:")
print(f"no efficient (eps, delta)-DP PAC learner exists for delta < {delta:.6f}")
