#!/usr/bin/env python3
"""Indistinguishability games, the hybrid schedule, and the reduction.

Smoke-level experiments: a random guesser and a payload-reading adversary
get nothing; an adversary that reads the (deliberately leaky) escrow
parameters wins outright, confirming the harness detects breaks.  The
hybrid schedule interpolates any static challenge into single-challenge
steps.  Finally the learner-to-adversary reduction is run both with the
honest learner and with synthetic hypotheses whose per-bucket acceptance
rates (p, q) are dialed in, where the win rate matches 1/2 + (p-q)^2/2.
"""

import numpy as np

from orelearn.encthresh import pac_learn
from orelearn.games import (
    ChallengePair,
    EscrowKeyLeakAdversary,
    PayloadBitAdversary,
    RandomGuessAdversary,
    ReductionAdversary,
    adversary_success_prob,
    hybrid_schedule,
    run_static_game,
    synthetic_reduction_win_rate,
)
from orelearn.opf import OpfOre
from orelearn.strengthen import EscrowCertifier, StrengthenedOre

rng = np.random.default_rng(31)
base = OpfOre(ell=16)
scheme = StrengthenedOre(base, EscrowCertifier())

print("=== static game: stock adversaries ===")
pair = ChallengePair((1000, 2000, 3000), (1500, 2500, 3500))
for name, adversary, trials in (
    ("random guesser", RandomGuessAdversary(), 3000),
    ("payload reader", PayloadBitAdversary(pair), 3000),
    ("escrow key leak", EscrowKeyLeakAdversary(base, ChallengePair((100, 200), (150, 250))), 300),
):
    report = run_static_game(scheme, adversary, trials, rng)
    print(f"{name:16s}: advantage = {report.advantage:.3f} +- {report.ci_halfwidth:.3f}")

print()
print("=== hybrid schedule: left to right, one slot at a time ===")
pair = ChallengePair((1, 5, 9), (2, 5, 8))
for j, vec in enumerate(hybrid_schedule(pair)):
    print(f"  hybrid {j}: {vec}")

print()
print("=== the reduction: honest learner vs synthetic hypotheses ===")
n = 20
big = StrengthenedOre(OpfOre(ell=32), EscrowCertifier())  # wide domain: draws stay well-spaced
adversary = ReductionAdversary(big, lambda s: pac_learn(big, s), n, j_star=7)
report = run_static_game(big, adversary, 1500, rng)
print(f"honest learner:  advantage = {report.advantage:.4f} "
      f"(soundness holds, so only the tiny floor {0.45**2 / (8 * n * n):.2e} is required)")
for p, q in ((1.0, 0.0), (0.75, 0.25), (0.5, 0.5)):
    rate = synthetic_reduction_win_rate(p, q, 100_000, rng)
    print(f"synthetic (p={p}, q={q}): win rate {rate:.4f} "
          f"vs formula {adversary_success_prob(p, q):.4f}")
