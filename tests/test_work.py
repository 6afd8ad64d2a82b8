"""The work each benchmark workload does, pinned as exact counts.

Every same-bytes speed-up rests on a memo, a batch or a deduplication; if
one broke, every byte would stay the same, so the goldens would not see
it.  This test runs each workload of ``perfbench/workloads.py`` through
``cli.main`` at seed 0, serially, and counts its costly operations.  A
change that moves a count on purpose says so, old and new, as it would
for a golden.
"""

import pathlib
import runpy
from types import SimpleNamespace

import pytest

from orelearn import cli, core, encthresh, opf, sq, strengthen

_WORKLOADS = runpy.run_path(
    str(pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
)["WORKLOADS"]

_COUNTS = ("tag_many messages", "full checks", "signs", "signature checks", "concept evals", "answer misses")

PINS = {
    "trace-soundness": (7701, 7679, 0, 0, 0, 0),
    "correctness-signature": (3481, 295, 3481, 2534, 0, 0),
    "sq-oracle": (5124, 5120, 0, 0, 5120, 106),
}


def _counted(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _counting_ed25519(counts, ed25519):
    """``strengthen._ed25519`` whose keys count each real sign and check."""
    private_key, public_key, invalid_signature = ed25519()

    class PrivateKey:
        @staticmethod
        def from_private_bytes(data):
            key = private_key.from_private_bytes(data)
            return SimpleNamespace(public_key=key.public_key, sign=_counted(counts, "signs", key.sign))

    class PublicKey:
        @staticmethod
        def from_public_bytes(data):
            key = public_key.from_public_bytes(data)
            return SimpleNamespace(verify=_counted(counts, "signature checks", key.verify))

    return lambda: (PrivateKey, PublicKey, invalid_signature)


@pytest.mark.parametrize("name", PINS)
def test_each_workload_does_its_pinned_work(name, tmp_path, monkeypatch, capsys):
    counts = dict.fromkeys(_COUNTS, 0)
    tag_many = opf.OpfOre.tag_many

    def counted_tag_many(self, sk, ms):
        ms = list(ms)
        counts["tag_many messages"] += len(ms)
        return tag_many(self, sk, ms)

    class AnswerMemo(dict):
        def __setitem__(self, key, value):
            counts["answer misses"] += 1
            super().__setitem__(key, value)

    oracle_init = sq.StatOracle.__init__

    def counted_oracle_init(self, *args, **kwargs):
        oracle_init(self, *args, **kwargs)
        self._answers = AnswerMemo(self._answers)

    monkeypatch.setattr(core, "_cpus", lambda: 1)
    monkeypatch.setattr(opf.OpfOre, "tag_many", counted_tag_many)
    monkeypatch.setattr(opf.OpfOre, "_full_check", _counted(counts, "full checks", opf.OpfOre._full_check))
    monkeypatch.setattr(strengthen, "_ed25519", _counting_ed25519(counts, strengthen._ed25519))
    monkeypatch.setattr(
        encthresh.EncThreshConcept,
        "evaluate",
        _counted(counts, "concept evals", encthresh.EncThreshConcept.evaluate),
    )
    monkeypatch.setattr(sq.StatOracle, "__init__", counted_oracle_init)

    workload = _WORKLOADS[name]
    argv = [*workload.argv, "--trials", str(workload.trials), "--seed", "0", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert counts == dict(zip(_COUNTS, PINS[name]))
