"""Command-line entry point for the experiment harness.

Subcommands mirror the experiment families: correctness, pac, trace,
games, hybrid, sq, validsig.  Parameters come either from a JSON config
file (--config) or from flags; flags override file values.  Exit codes:
0 success, 2 config error, 3 gate-threshold failure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .harness import (
    _CERTIFIERS,
    _DEFAULTS,
    _DISTS,
    _KEYSPACES,
    _MODES,
    _SCHEMES,
    ConfigError,
    ExperimentConfig,
    run,
)

__all__ = ["build_parser", "main"]

_HELP = {
    "correctness": "weak and strong correctness sweeps",
    "pac": "comparator learner error-bound experiment",
    "trace": "reidentification completeness/soundness",
    "games": "indistinguishability game runners",
    "hybrid": "expand and check a hybrid schedule",
    "sq": "statistical-query learner experiment",
    "validsig": "signature-validity concept experiments",
}
_MODE_HELP = {"sq": "oracle answer mode"}


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    sub.add_argument("--out", type=str, default=None, help="report output directory")
    sub.add_argument(
        "--format", choices=("json", "csv", "both"), default="both", dest="out_format"
    )
    sub.add_argument("--transcripts", action="store_true", default=None)
    for name in ("ell", "lam", "trials", "n"):
        sub.add_argument(f"--{name}", type=int, default=None)
    for name in ("alpha", "beta", "gamma", "xi", "eps"):
        sub.add_argument(f"--{name}", type=float, default=None)
    sub.add_argument("--scheme", choices=_SCHEMES, default=None)
    sub.add_argument("--certifier", choices=tuple(_CERTIFIERS), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orelearn",
        description="Seeded desk-scale experiments for strongly correct ORE "
        "and encrypted-threshold learning",
    )
    subs = parser.add_subparsers(dest="experiment", required=True)
    for experiment, modes in _MODES.items():
        sub = subs.add_parser(experiment, help=_HELP[experiment])
        _add_common(sub)
        if any(modes):
            sub.add_argument(
                "--mode",
                choices=[m for m in modes if m],
                default=None,  # the first mode, unless the config file names one
                help=_MODE_HELP.get(experiment),
            )

    subs.choices["pac"].add_argument("--dist", choices=_DISTS, default=None)
    trace = subs.choices["trace"]
    trace.add_argument("--drop-index", type=int, default=None, dest="drop_index")
    trace.add_argument("--k-cap", type=int, default=None, dest="k_cap",
                       help="cap per-bucket samples (reduced-K mode, non-conforming)")
    hybrid = subs.choices["hybrid"]
    hybrid.add_argument("--left", type=str, required=False, help="comma-separated ascending ints")
    hybrid.add_argument("--right", type=str, required=False)
    subs.choices["sq"].add_argument("--keyspace", choices=tuple(_KEYSPACES), default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config file must hold a JSON object")
    for key in _DEFAULTS:  # flags override file values; "experiment" is the subcommand
        value = getattr(args, key, None)
        if key in ("left", "right") and isinstance(value, str):
            try:
                raw[key] = [int(tok) for tok in value.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(key, f"not a comma-separated list of ints: {value!r}") from None
        elif value is not None:
            raw[key] = value
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: <file>: {exc}", file=sys.stderr)
        return 2
    if args.out:  # before the run, so a bad directory costs no trials
        try:
            pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"config error: --out: {exc}", file=sys.stderr)
            return 2
    report = run(config)
    for key in sorted(report.aggregates):
        print(f"{key} = {report.aggregates[key]}")
    status = "PASS" if report.passed else ("FAIL" if report.passed is False else "n/a")
    print(f"experiment={config.experiment} hash={config.config_hash()} gate={status}")
    if args.out:
        formats = ("json", "csv") if args.out_format == "both" else (args.out_format,)
        for path in report.write(args.out, formats):
            print(f"wrote {path}")
    if report.passed is False:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
