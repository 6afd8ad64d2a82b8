"""Span tracer for one benchmark repetition, installed from outside the program.

``Tracer.install`` wraps public functions and methods of orelearn where
their callers look them up: class attributes for methods, and module
globals for functions (``cli.run`` for the harness entry point,
``harness.pac_learn`` for the learner, ``reident.estimate_bucket_probs``
for ``trace_ex``).  Each wrapped call records a span (name, start, end,
parent span, trial id) in flat in-memory arrays, and adds its wall time and
self time (its duration minus that of its traced children) to per-name
totals.  The hottest leaf, ``OpfSecretKey.split_fraction``, only adds to
the totals and stores no span.  ``write_spans`` saves the spans when the
repetition ends.

Wrapping never alters arguments or results, so a traced run must write the
same CSV bodies as an untraced one; run.py checks that.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from orelearn.core import BOT

_NO_SPAN = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.trial = _NO_SPAN  # id stamped on new spans; -1 outside a trace trial
        self.trials_started = 0
        self.trial_start = 0.0
        self.trial_s: list[float] = []
        self._stack: list[list] = []  # frames: [nearest stored span id, child_s]
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._trial = array("i")

    def wrap(self, name: str, fn, store: bool = True, count_bot: bool = False):
        """Return fn wrapped to record spans and totals under ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, clock, counts = self._stack, time.perf_counter, self.counts
        names, starts, ends = self._name, self._start, self._end
        parents, trials = self._parent, self._trial

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else _NO_SPAN
            if store:
                span = len(starts)
                names.append(name_id)
                parents.append(parent)
                trials.append(self.trial)
                ends.append(0.0)
                frame = [span, 0.0]
            else:
                frame = [parent, 0.0]
            stack.append(frame)
            start = clock()
            if store:
                starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if store:
                    ends[span] = end
            if count_bot and result is BOT:
                counts[name + ".bot"] += 1
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, **options):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def install(self):
        """Wrap every traced layer of the imported orelearn package."""
        # orelearn/__init__ rebinds the name ``strengthen`` to a function,
        # so the modules are looked up by their full names.
        cli, core, encthresh, harness, opf, reident, sq, strengthen = (
            importlib.import_module(f"orelearn.{name}")
            for name in ("cli", "core", "encthresh", "harness", "opf", "reident", "sq", "strengthen")
        )
        p = self._patch
        p(opf.OpfSecretKey, "split_fraction", "opf.split_fraction", store=False)
        for op in ("tag", "enc", "dec", "comp"):
            p(opf.OpfOre, op, f"opf.{op}")
        p(strengthen._SignatureVerifyKey, "verify", "strengthen.verify")
        p(strengthen._EscrowVerifyKey, "verify", "strengthen.verify")
        p(strengthen.StrengthenedOre, "enc", "strengthen.enc")
        p(strengthen.StrengthenedOre, "dec", "strengthen.dec", count_bot=True)
        p(strengthen.StrengthenedOre, "comp", "strengthen.comp", count_bot=True)
        p(strengthen.StrengthenedOre, "gen_from_coins", "strengthen.gen")
        p(core.FuzzPairSampler, "sample", "core.fuzz_sample")
        p(core, "comp_ciph", "core.comp_ciph")
        p(harness, "check_weak_correctness", "core.check_weak")
        p(harness, "check_strong_correctness", "core.check_strong")
        p(encthresh.ComparatorHypothesis, "evaluate", "encthresh.hyp_eval")
        p(encthresh.EncThreshConcept, "evaluate", "encthresh.concept_eval")
        for dist in (
            encthresh.UniformValidDistribution,
            encthresh.MalformedMixtureDistribution,
            encthresh.WrongParamsMixtureDistribution,
            encthresh.PointMassDistribution,
        ):
            p(dist, "sample", "encthresh.dist_sample")
        p(harness, "pac_learn", "encthresh.pac_learn")
        p(reident, "estimate_bucket_probs", "reident.estimate")
        p(sq.StatOracle, "query", "sq.query")
        p(cli, "run", "harness.run")
        p(harness.ExperimentReport, "write", "harness.write")

        # A trace trial runs gen_ex, the learner, then trace_ex.
        gen_ex = self.wrap("reident.gen_ex", reident.gen_ex)
        trace_ex = self.wrap("reident.trace_ex", reident.trace_ex)

        def start_trial(*args, **kwargs):
            self.trial = self.trials_started
            self.trials_started += 1
            self.trial_start = time.perf_counter()
            return gen_ex(*args, **kwargs)

        def end_trial(*args, **kwargs):
            try:
                verdict = trace_ex(*args, **kwargs)
            finally:
                self.trial = _NO_SPAN
            self.trial_s.append(time.perf_counter() - self.trial_start)
            return verdict

        reident.gen_ex, reident.trace_ex = start_trial, end_trial

        for recovery in (sq.OracleKeyRecovery, sq.TinyKeyspaceRecovery):
            self._patch_recover(recovery)

        cli.main = self.wrap("cli.main", cli.main)

    def _patch_recover(self, recovery_cls):
        recover = self.wrap("sq.recover", recovery_cls.recover)
        counts = self.counts

        def counted(obj, params):
            before = getattr(obj, "searched", 0)
            try:
                return recover(obj, params)
            finally:
                counts["sq.keys_searched"] += getattr(obj, "searched", 0) - before

        recovery_cls.recover = counted

    def snapshot(self) -> dict:
        """Totals for run.py: stats per name, counters, trial durations."""
        return {
            "stats": self.stats,
            "counts": dict(self.counts),
            "trial_s": self.trial_s,
            "spans": len(self._start),
        }

    def write_spans(self, out_dir: Path):
        """Save spans as a JSON header plus one flat binary array per column."""
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = (
            ("name", self._name),
            ("start_s", self._start),
            ("end_s", self._end),
            ("parent", self._parent),
            ("trial", self._trial),
        )
        with open(out_dir / "spans.bin", "wb") as fh:
            for _, column in columns:
                column.tofile(fh)
        header = {
            "names": self.names,
            "count": len(self._start),
            "columns": [[label, column.typecode] for label, column in columns],
            "layout": "each column stored whole, in the order listed, native byte order",
            "stored_as_totals_only": ["opf.split_fraction"],
        }
        (out_dir / "spans.json").write_text(json.dumps(header, indent=1))
