#!/usr/bin/env python3
"""PAC-learning threshold concepts over encrypted examples.

A concept accepts an example (params, ciphertext) when the parameters
match its key and the ciphertext decrypts below a threshold.  The learner
never decrypts: it anchors a comparator at the largest positive example
under the public comparison.  Strong comparison correctness is what makes
this work for *any* example distribution — including ones that are mostly
malformed ciphertexts or foreign public parameters.
"""

import numpy as np

from orelearn.encthresh import (
    DISTRIBUTION_FAMILIES,
    labeled_sample,
    make_distribution,
    pac_learn,
    random_concept,
    required_sample_size,
)
from orelearn.opf import OpfOre
from orelearn.strengthen import EscrowCertifier, StrengthenedOre

rng = np.random.default_rng(11)
scheme = StrengthenedOre(OpfOre(ell=32), EscrowCertifier())

alpha = beta = 0.05
n = required_sample_size(alpha, beta)
print(f"target error {alpha}, confidence {1 - beta} -> sample size n = {n}")
print()

for family in DISTRIBUTION_FAMILIES:
    good = 0
    trials = 40
    for trial in range(trials):
        concept = random_concept(scheme, rng)
        dist = make_distribution(family, concept, rng)
        sample = labeled_sample(concept, dist, n, rng)
        hypothesis = pac_learn(scheme, sample)
        err = dist.exact_error(hypothesis, concept)
        good += err <= alpha
    print(f"{family:12s}: error <= {alpha} in {good}/{trials} trials")

print()
print("One learned hypothesis, up close (with a roomier sample):")
concept = random_concept(scheme, rng, t=scheme.domain_size // 3)
dist = make_distribution("uniform", concept, rng)
hypothesis = pac_learn(scheme, labeled_sample(concept, dist, 4 * n, rng))
print("  description:", hypothesis.describe())
print("  exact error:", dist.exact_error(hypothesis, concept))
anchor_m = scheme.dec(concept.key.sk, hypothesis.anchor)
print(f"  anchor decrypts to {anchor_m} (threshold is {concept.t}) — one-sided:")
print(f"  the hypothesis accepts exactly the encryptions of 0..{anchor_m}")
