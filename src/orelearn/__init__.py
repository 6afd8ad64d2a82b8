"""Order-revealing encryption with strongly correct comparison, and the
learning-theoretic experiments it enables: encrypted-threshold PAC
learning, example-reidentification tracing, indistinguishability games,
statistical-query learning, and signature-validity concepts.
"""

__version__ = "0.1.0"

from .core import (
    BOT,
    CheckReport,
    KeyMaterial,
    Ordering3,
    OreScheme,
    PublicParams,
    check_decryption_correctness,
    check_strong_correctness,
    check_weak_correctness,
    comp_ciph,
    compare_ints,
)
from .encthresh import (
    AllZeroesHypothesis,
    ComparatorHypothesis,
    EncThreshConcept,
    Example,
    empirical_error,
    pac_learn,
    required_sample_size,
)
from .games import (
    ChallengePair,
    ReductionAdversary,
    adversary_success_prob,
    hybrid_schedule,
    run_single_challenge_game,
    run_static_game,
)
from .opf import OpfOre
from .reident import (
    completeness_experiment,
    dp_bound,
    gen_ex,
    concentration_sample_count,
    sample_without,
    soundness_experiment,
    trace_ex,
)
from .sq import StatOracle, ViewQuery, sq_learn
from .strengthen import EscrowCertifier, SignatureCertifier, StrengthenedOre
from .validsig import (
    Ed25519Scheme,
    ValidSigConcept,
    run_weak_forgery_game,
    validsig_gen_ex,
    validsig_learn,
    validsig_trace_ex,
)
from .harness import ExperimentConfig, ExperimentReport, derive_trial_rng, run
