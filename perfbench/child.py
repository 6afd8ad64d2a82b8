"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``PYTHONPATH``
pointing at the checkout's ``src``.  The spec holds one of:

* ``{"argv": [...], "trace": bool, "spans_dir": str}``: time the reference
  loop, then call ``orelearn.cli.main(argv)`` once, optionally under the
  tracer;
* ``{"configs": {name: raw config}}``: run each config through the harness
  and report the SHA-256 of its CSV bodies (the goldens check).

The last line of standard output is one JSON object with the results.
``ready`` is read from the system-wide monotonic clock, so the parent can
subtract its own spawn time from it.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])

import orelearn.cli as cli  # noqa: E402  (set-up ends once this import is done)

ready = time.monotonic()


def _reference_s() -> float:
    """Wall time of a fixed hashing and dict workload that uses no orelearn code.

    It runs in every repetition just before ``cli.main``, so it measures how
    fast the host runs Python at that moment.
    """
    import hashlib

    root = hashlib.blake2b(b"perfbench-reference", digest_size=16)
    table = {}
    acc = 0
    start = time.perf_counter()
    for i in range(60_000):
        h = root.copy()
        h.update(i.to_bytes(8, "big"))
        v = int.from_bytes(h.digest(), "big")
        table[(i & 63, (v >> 80) & 63)] = v  # at most 4096 entries, so no RSS growth
        acc += (v % 97) * (i % 13)
    for key in list(table)[::2]:
        acc ^= table[key] & 0xFFFF
    return time.perf_counter() - start


def _run_main() -> dict:
    import contextlib
    import io
    import resource
    from pathlib import Path

    reference_s = _reference_s()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(spec["argv"])
        main_s = time.perf_counter() - start
    result = {
        "ready": ready,
        "rc": rc,
        "main_s": main_s,
        "reference_s": reference_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        tracer.write_spans(Path(spec["spans_dir"]))
    return result


def _run_configs() -> dict:
    import hashlib

    from orelearn.harness import ExperimentConfig, run

    digests = {}
    for name, raw in spec["configs"].items():
        report = run(ExperimentConfig.from_dict(raw))
        digests[name] = {
            "trials": hashlib.sha256(report.csv_trials().encode()).hexdigest(),
            "summary": hashlib.sha256(report.csv_summary().encode()).hexdigest(),
        }
    return {"ready": ready, "digests": digests}


outcome = _run_configs() if "configs" in spec else _run_main()
print(json.dumps(outcome))
