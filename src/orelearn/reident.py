"""Example reidentification for encrypted-threshold concepts.

The generator fixes the middle threshold t = N/2, draws n uniform
messages, encrypts them under a fresh key, and hands the learner the
labeled sample.  Sorting the drawn messages splits the plaintext space
into buckets B_i = [m_i, m_{i+1}) between consecutive sample messages
(with sentinels m_0 = 0 and m_{n+1} = N-1).  The tracer estimates, for
each bucket, the probability that the learned hypothesis accepts a fresh
encryption from that bucket, and accuses the sample index whose message
separates the first adjacent bucket pair whose estimates drop by at least
gamma/n.  Any hypothesis with nontrivial accuracy must induce such a drop
somewhere; a hypothesis learned without example i induces one at i only
with the probability that the scheme's security is broken.

Estimates use K = ceil((8 n^2 / gamma^2) * ln(9 n / xi)) samples per
bucket, which makes all n+1 of them simultaneously gamma/(4n)-accurate
with probability at least 1 - xi/4 (Chernoff plus a union bound).  A
reduced-K mode caps the per-bucket sample count for fast runs; reports
carry a flag marking such runs as non-conforming to that analysis.

The differential-privacy consequence is quantified by ``dp_bound``: a
tracing scheme with completeness failure beta and soundness/completeness
slack xi rules out any efficient (eps, delta)-differentially private
(alpha, beta)-PAC learner with delta below (1 - beta - xi)/n - e^eps * xi.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

from .encthresh import EncThreshConcept, Example, UniformValidDistribution, hypothesis_error
from .core import OreScheme

__all__ = [
    "ReidentState",
    "TraceVerdict",
    "draw_buckets",
    "gen_ex",
    "sample_without",
    "concentration_sample_count",
    "estimate_bucket_probs",
    "trace_ex",
    "accuse_from_estimates",
    "completeness_experiment",
    "soundness_experiment",
    "dp_bound",
    "CompletenessReport",
    "SoundnessReport",
]

# draws per enc_many/evaluate_many call in the bucket estimator; bounds the
# ciphertexts and examples held at once when K is in the millions
ESTIMATE_BATCH = 4096

# fewer draws in all than this and the estimator stays in one process; its
# docstring says how the floor was sized
FORK_MIN_DRAWS = 1000


@dataclass
class ReidentState:
    """Shared state between the generator and the tracer for one run."""

    concept: EncThreshConcept
    raw_messages: np.ndarray  # m'_1..m'_n in draw order
    bucket_bounds: np.ndarray  # 0, m_1 <= ... <= m_n, N-1; bucket i is [b_i, b_{i+1})
    sorted_to_raw: np.ndarray  # raw (0-based) index of each sorted position
    junk_example: Example  # encryption of m_0 = 0, labeled 1
    well_spaced: bool

    @property
    def n(self) -> int:
        return len(self.raw_messages)

    @property
    def sorted_messages(self) -> np.ndarray:
        """m_1 <= ... <= m_n."""
        return self.bucket_bounds[1:-1]


@dataclass
class TraceVerdict:
    accused: "int | None"  # raw sample index in [1, n], or None for no accusation
    accused_sorted: "int | None"  # sorted position of the separating message
    estimates: np.ndarray  # p_hat_0 .. p_hat_n
    k_conforming: bool  # False when a reduced K was used
    degraded: bool = False  # True when empty buckets inherited estimates


def draw_buckets(
    big_n: int, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Draw n uniform messages of {0, ..., N-1} and the buckets they split.

    Returns the draws in draw order, their stable sort order, the n+2
    bucket bounds (0, m_1, ..., m_n, N-1) and whether the draw is
    well-spaced: every gap between bounds, sentinels included, exceeds one.
    """
    raw = rng.integers(0, big_n, size=n)
    order = np.argsort(raw, kind="stable")
    bounds = np.concatenate(([0], raw[order], [big_n - 1]))
    return raw, order, bounds, bool(np.all(np.diff(bounds) > 1))


def gen_ex(
    scheme: OreScheme, n: int, rng: np.random.Generator
) -> tuple[ReidentState, list[tuple[Example, int]]]:
    """Draw the concept (t = N/2), the sample, and the junk example.

    Warns when n^2 approaches the domain size, since the well-spacing of
    uniform draws is then at risk; the returned state records whether all
    gaps (sentinels included) exceed one.
    """
    big_n = scheme.domain_size
    if n < 1:
        raise ValueError("need n >= 1")
    if n * n >= big_n // 100:
        import warnings

        warnings.warn(
            f"n^2 = {n * n} is large relative to the domain {big_n}; "
            "well-spacing of the sample is at risk",
            stacklevel=2,
        )
    key = scheme.gen(rng)
    concept = EncThreshConcept(scheme=scheme, t=big_n // 2, key=key)
    raw, order, bounds, well_spaced = draw_buckets(big_n, n, rng)
    junk, *examples = concept.encrypt_examples([0] + raw.tolist())
    state = ReidentState(
        concept=concept,
        raw_messages=raw,
        bucket_bounds=bounds,
        sorted_to_raw=order,
        junk_example=junk,
        well_spaced=well_spaced,
    )
    sample = [(x, 1 if m < concept.t else 0) for x, m in zip(examples, raw.tolist())]
    return state, sample


def sample_without(
    state: ReidentState, sample: list[tuple[Example, int]], i: int
) -> list[tuple[Example, int]]:
    """The sample with position i (1-based) replaced by the junk example.

    The junk slot is labeled 1: it encrypts 0, which every middle-threshold
    concept accepts.
    """
    if not (1 <= i <= state.n):
        raise ValueError(f"index {i} outside [1, {state.n}]")
    out = list(sample)
    out[i - 1] = (state.junk_example, 1)
    return out


def concentration_sample_count(n: int, gamma: float, xi: float) -> int:
    """K = ceil((8 n^2 / gamma^2) * ln(9 n / xi))."""
    if n < 1 or not (0 < gamma) or not (0 < xi):
        raise ValueError("need n >= 1 and positive gamma, xi")
    return math.ceil((8.0 * n * n / (gamma * gamma)) * math.log(9.0 * n / xi))


def estimate_bucket_probs(
    state: ReidentState,
    hypothesis,
    gamma: float,
    xi: float,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> tuple[np.ndarray, int, bool, bool]:
    """Per-bucket acceptance estimates of the hypothesis on fresh encryptions.

    Returns (estimates, K used, conforming, degraded).  Empty buckets (only
    possible when the draw was not well-spaced) inherit the estimate of the
    nearest nonempty bucket below and set the degraded flag, mirroring the
    bookkeeping of discarding non-well-spaced runs.

    Each nonempty bucket draws its K messages from ``rng`` in bucket order,
    encrypts them and counts the hypothesis's acceptances.  Once the draws
    are fixed the buckets are independent, so the nonempty ones are shared
    round robin between this process and P - 1 children made with
    ``os.fork``, where P is the smaller of ``_cpus()`` and the number of
    nonempty buckets.  Every process replays every bucket's draws, in order,
    on its own copy of ``rng`` and scores only its own buckets; a child
    pickles its counts down a pipe and leaves by ``os._exit``.  The
    estimates, the degraded flag and where ``rng`` is left are the same
    bytes as the serial loop's for every P.  The loop stays serial when P is
    1, when the platform has no ``os.fork`` or ``os.sched_getaffinity``,
    when another Python thread is alive (it could hold a lock the child
    needs; native threads such as numpy's BLAS pool do not count), and below
    ``FORK_MIN_DRAWS`` (1000) draws in all.  That floor is sized from the
    fork round trip (fork, pickled report, reap): a median of about 5 ms
    (4-10 ms) on a shared 2-CPU Xeon under Python 3.11, where one draw costs
    20-100 us to encrypt and score.  At 1000 draws a second process saves
    10-50 ms against those 5.

    So ``hypothesis.evaluate``/``evaluate_many`` must depend only on the
    example: memos and any other state the hypothesis builds while scoring a
    child's buckets stay in that child and are not carried back.  An
    exception raised in a child is re-raised here (as a ``RuntimeError``
    naming it when it cannot be pickled); every child is reaped before this
    returns or raises.
    """
    n = state.n
    k_exact = concentration_sample_count(n, gamma, xi)
    k = min(k_exact, k_cap) if k_cap is not None else k_exact
    conforming = k >= k_exact
    bounds = state.bucket_bounds.tolist()
    concept = state.concept
    scheme, sk, params = concept.scheme, concept.key.sk, concept.key.params
    evaluate_many = getattr(hypothesis, "evaluate_many", None)
    if evaluate_many is None:
        evaluate_many = lambda examples: map(hypothesis.evaluate, examples)
    live = [i for i in range(n + 1) if bounds[i + 1] > bounds[i]]

    def tally(share: set) -> dict:
        """Accepted count of each bucket in ``share``; draws every live bucket."""
        hits = {}
        for i in live:
            draws = rng.integers(bounds[i], bounds[i + 1], size=k)
            if i not in share:
                continue
            # the bucket's k draws, encrypted and evaluated in bounded batches
            acc = 0
            for start in range(0, k, ESTIMATE_BATCH):
                batch = draws[start : start + ESTIMATE_BATCH].tolist()
                acc += sum(evaluate_many([Example(params, ct) for ct in scheme.enc_many(sk, batch)]))
            hits[i] = acc
        return hits

    workers = min(_cpus(), len(live))
    if k * len(live) < FORK_MIN_DRAWS or threading.active_count() > 1:
        workers = 1
    hits = _tally_shared(tally, [set(live[j::workers]) for j in range(workers)])
    p_hat = np.zeros(n + 1)
    for i in range(n + 1):
        if i in hits:
            p_hat[i] = hits[i] / k
        elif i > 0:
            p_hat[i] = p_hat[i - 1]
    return p_hat, k, conforming, len(live) < n + 1


def _cpus() -> int:
    """How many processes may share the buckets: the CPUs this process may
    run on, or 1 where the platform has no ``fork`` or affinity mask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _tally_shared(tally, shares: list) -> dict:
    """``tally(shares[0])`` here and each later share in a forked child, merged.

    A child that raised has its exception re-raised here; if anything here
    raises first, the children still running are killed.  Either way every
    child is reaped before this returns or raises.
    """
    children = []  # (pid, read end of its report pipe), not yet reaped
    try:
        for share in shares[1:]:
            children.append(_fork_tally(tally, share))
        hits = tally(shares[0])
        while children:
            pid, pipe = children[-1]
            blob = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop()  # only once reaped, so the cleanup never waits on it again
            pipe.close()
            if not blob:
                raise RuntimeError(
                    f"estimator child {pid} ended without a report "
                    f"(wait status {status:#x}, exit code {os.waitstatus_to_exitcode(status)})"
                )
            ok, payload = pickle.loads(blob)
            if not ok:
                raise payload
            hits.update(payload)
        return hits
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_tally(tally, share: set):
    """Fork a child that runs ``tally(share)`` and pickles ``(True, counts)``
    or ``(False, exception)`` down a pipe; return (pid, the pipe's read end).

    The child always leaves by ``os._exit``, so it never flushes inherited
    stdio buffers, runs atexit hooks or returns into the caller's frames.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                report = (True, tally(share))
            except BaseException as exc:
                report = (False, exc)
            try:
                blob = pickle.dumps(report)
                pickle.loads(blob)  # some exceptions pickle but cannot be rebuilt
            except Exception:
                blob = pickle.dumps((False, RuntimeError(f"estimator child raised {report[1]!r}")))
            with open(write_fd, "wb") as pipe:
                pipe.write(blob)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def accuse_from_estimates(estimates: np.ndarray, gamma: float, n: int) -> "int | None":
    """Least sorted position i in [1, n] with p_hat_{i-1} - p_hat_i >= gamma/n."""
    threshold = gamma / n
    for i in range(1, n + 1):
        if estimates[i - 1] - estimates[i] >= threshold:
            return i
    return None


def trace_ex(
    state: ReidentState,
    hypothesis,
    gamma: float,
    xi: float,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> TraceVerdict:
    """Estimate bucket probabilities and accuse the first separating index."""
    estimates, _, conforming, degraded = estimate_bucket_probs(
        state, hypothesis, gamma, xi, rng, k_cap=k_cap
    )
    sorted_i = accuse_from_estimates(estimates, gamma, state.n)
    raw_i = None
    if sorted_i is not None:
        raw_i = int(state.sorted_to_raw[sorted_i - 1]) + 1
    return TraceVerdict(
        accused=raw_i,
        accused_sorted=sorted_i,
        estimates=estimates,
        k_conforming=conforming,
        degraded=degraded,
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _share(rows: list, pred) -> float:
    """Share of rows satisfying pred; nan when there are no rows."""
    return sum(pred(r) for r in rows) / len(rows) if rows else float("nan")


@dataclass
class CompletenessReport:
    rows: list = field(default_factory=list)
    k_conforming: bool = True

    @property
    def p_good(self) -> float:
        return _share(self.rows, lambda r: r["good"])

    @property
    def p_good_and_untraced(self) -> float:
        return _share(self.rows, lambda r: r["good_and_untraced"])

    @property
    def p_accused(self) -> float:
        return _share(self.rows, lambda r: r["accused"] is not None)

    def p_accused_well_spaced(self) -> float:
        ws = [r for r in self.rows if r["well_spaced"]]
        return _share(ws, lambda r: r["accused"] is not None)


def completeness_experiment(
    scheme: OreScheme,
    n: int,
    learner,
    alpha: float,
    gamma: float,
    xi: float,
    trials: int,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> CompletenessReport:
    """Can a good hypothesis be traced to some example?

    Per trial: generate, learn on the full sample, measure error, trace.
    Reports the rates of (error <= alpha), (good and untraced), and
    (accused), both overall and restricted to well-spaced draws.
    """
    report = CompletenessReport()
    for _ in range(trials):
        state, sample = gen_ex(scheme, n, rng)
        hypothesis = learner(sample)
        # error under the run's own distribution, uniform valid encryptions
        err = hypothesis_error(
            hypothesis, state.concept, UniformValidDistribution(state.concept), rng
        )
        verdict = trace_ex(state, hypothesis, gamma, xi, rng, k_cap=k_cap)
        report.k_conforming &= verdict.k_conforming
        report.rows.append(
            {
                "well_spaced": state.well_spaced,
                "error": err,
                "good": err <= alpha,
                "accused": verdict.accused,
                "good_and_untraced": err <= alpha and verdict.accused is None,
            }
        )
    return report


@dataclass
class SoundnessReport:
    drop_index: int
    rows: list = field(default_factory=list)
    k_conforming: bool = True

    @property
    def p_accuse_dropped(self) -> float:
        return _share(self.rows, lambda r: r["accused"] == self.drop_index)

    def p_accuse_dropped_well_spaced(self) -> float:
        ws = [r for r in self.rows if r["well_spaced"]]
        return _share(ws, lambda r: r["accused"] == self.drop_index)


def soundness_experiment(
    scheme: OreScheme,
    n: int,
    learner,
    drop_index: int,
    gamma: float,
    xi: float,
    trials: int,
    rng: np.random.Generator,
    k_cap: "int | None" = None,
) -> SoundnessReport:
    """How often is the dropped example accused when the learner never saw it?"""
    report = SoundnessReport(drop_index=drop_index)
    for _ in range(trials):
        state, sample = gen_ex(scheme, n, rng)
        hypothesis = learner(sample_without(state, sample, drop_index))
        verdict = trace_ex(state, hypothesis, gamma, xi, rng, k_cap=k_cap)
        report.k_conforming &= verdict.k_conforming
        report.rows.append(
            {
                "well_spaced": state.well_spaced,
                "accused": verdict.accused,
            }
        )
    return report


def dp_bound(beta: float, xi: float, n: int, eps: float) -> float:
    """No efficient (eps, delta)-DP (alpha, beta)-PAC learner exists for
    delta below this value; nonpositive means no contradiction at these
    parameters."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not (0 <= beta <= 1 and 0 <= xi <= 1 and eps >= 0):
        raise ValueError("parameters out of range")
    return (1.0 - beta - xi) / n - math.exp(eps) * xi
