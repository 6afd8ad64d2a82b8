#!/usr/bin/env python3
"""Learning encrypted thresholds from statistical queries alone.

The oracle answers expectations of predicates over labeled examples within
a tolerance, never revealing individual examples.  The learner spends one
query on the label weight, one per bit of the public parameters (all the
positive mass sits on the target's parameter string), recovers a matching
secret key, then binary-searches the threshold with at most ell more
queries.  Key recovery is a registry oracle by default; with a 16-bit coin
space it is a genuine exhaustive search.
"""

import numpy as np

from orelearn.encthresh import random_concept, random_point_mass
from orelearn.opf import OpfOre
from orelearn.sq import OracleKeyRecovery, StatOracle, TinyKeyspaceRecovery, sq_learn
from orelearn.strengthen import EscrowCertifier, StrengthenedOre

rng = np.random.default_rng(41)
alpha = 0.05


print("=== oracle-backed key recovery, ell=16 ===")
scheme = StrengthenedOre(OpfOre(ell=16), EscrowCertifier())
budget = 1 + 8 * scheme.params_len() + scheme.ell
for trial in range(3):
    concept = random_concept(scheme, rng, t=int(rng.integers(1, scheme.domain_size + 1)))
    dist = random_point_mass(concept, 256, rng)
    oracle = StatOracle(concept, dist, alpha, mode="exact")
    recovery = OracleKeyRecovery()
    recovery.register(concept.key)
    hypothesis = sq_learn(oracle, alpha, recovery, scheme)
    err = dist.exact_error(hypothesis, concept)
    print(f"true t = {concept.t:6d}  recovered t = {hypothesis.t:6d}  "
          f"error = {err:.4f}  queries = {oracle.query_count}/{budget}")

print()
print("=== genuine exhaustive search over a 16-bit coin space, ell=10 ===")
tiny = StrengthenedOre(OpfOre(ell=10, coin_len=2), EscrowCertifier())
concept = random_concept(tiny, rng, t=700)
dist = random_point_mass(concept, 128, rng)
oracle = StatOracle(concept, dist, alpha, mode="exact")
recovery = TinyKeyspaceRecovery(tiny)
hypothesis = sq_learn(oracle, alpha, recovery, tiny)
print(f"searched {recovery.searched} coin strings before the parameters matched")
print(f"recovered t = {hypothesis.t} (true {concept.t}), "
      f"error = {dist.exact_error(hypothesis, concept):.4f}")

print()
print("=== jittered answers still land within tolerance ===")
concept = random_concept(scheme, rng, t=20_000)
dist = random_point_mass(concept, 256, rng)
oracle = StatOracle(concept, dist, alpha, mode="jitter", rng=rng)
recovery = OracleKeyRecovery()
recovery.register(concept.key)
hypothesis = sq_learn(oracle, alpha, recovery, scheme)
print(f"jitter mode: error = {dist.exact_error(hypothesis, concept):.4f} "
      f"(<= {alpha}), queries = {oracle.query_count}")
