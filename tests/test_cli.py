"""CLI surface: subcommands, config files, exit codes, report files."""

import json
import math

import pytest

from orelearn import cli
from orelearn.cli import main
from orelearn.harness import _MODES, ExperimentConfig


def test_hybrid_subcommand_success(capsys):
    code = main(["hybrid", "--left", "1,5,9", "--right", "2,5,8", "--ell", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gate=PASS" in out


def test_exit_code_2_on_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    code = main(["pac", "--config", str(cfg)])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_exit_code_2_on_malformed_json(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["pac", "--config", str(cfg)]) == 2


def test_exit_code_2_on_missing_drop_index():
    assert main(["trace", "--mode", "soundness", "--trials", "1"]) == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (["games", "--mode", "synthetic", "--trials", "10", "--seed", "-1"], "seed"),
        (["games", "--mode", "synthetic", "--trials", "10", "--seed", str(1 << 64)], "seed"),
        (["trace", "--n", "4", "--ell", "16", "--trials", "1", "--k-cap", "0"], "k_cap"),
        (["pac", "--ell", "63", "--trials", "1"], "ell"),
        (["sq", "--ell", "63", "--trials", "1"], "ell"),
        (["correctness", "--ell", "64", "--trials", "1"], "ell"),
        (["trace", "--n", "4", "--ell", "64", "--trials", "1", "--k-cap", "3"], "ell"),
        (["games", "--mode", "reduction", "--n", "4", "--ell", "64", "--trials", "1"], "ell"),
        (["games", "--mode", "leak", "--scheme", "opf", "--trials", "5"], "mode"),
        (["trace", "--n", "4", "--trials", "1", "--k-cap", "3", "--eps", "-1"], "eps"),
        (["hybrid", "--left", "1,x", "--right", "2,3", "--ell", "4"], "left"),
        (["hybrid", "--left", "1,2", "--right", "1", "--ell", "4"], "left"),
        (["hybrid", "--left", "1,20", "--right", "2,3", "--ell", "4"], "left"),
        # below each mode's smallest workable ell
        (["games", "--mode", "random", "--ell", "1", "--trials", "2"], "ell"),
        (["games", "--mode", "payload", "--ell", "2", "--trials", "2"], "ell"),
        (["games", "--mode", "payload", "--ell", "3", "--trials", "2"], "ell"),  # left == right
        (["games", "--mode", "reduction", "--n", "1", "--ell", "1", "--trials", "2"], "ell"),
        (["games", "--mode", "reduction", "--ell", "2", "--trials", "2"], "ell"),
        (["games", "--mode", "leak", "--ell", "3", "--trials", "2"], "ell"),
        (["pac", "--dist", "pointmass", "--ell", "2", "--trials", "2"], "ell"),
        (["pac", "--dist", "all", "--ell", "2", "--trials", "2"], "ell"),
        # reduction's degenerate-trial filler (0, ..., n + 1) needs 2**ell >= n + 2
        (["games", "--mode", "reduction", "--n", "15", "--ell", "4", "--trials", "2"], "ell"),
        # an infinite eps would make dp_bound -inf and write Infinity into the JSON
        # report; above 709.78, e**eps overflows and dp_bound raises
        (["trace", "--ell", "32", "--n", "2", "--trials", "1", "--k-cap", "5", "--eps", "inf"], "eps"),
        (["trace", "--ell", "32", "--n", "2", "--trials", "1", "--k-cap", "5", "--eps", "1000"], "eps"),
        # in range, but a count the runner derives from the value is not finite:
        # the sample size ln(1/beta)/alpha, the SQ tolerance floor, the
        # estimator's K (gamma**2 underflows to 0 at 1e-320) and dp_bound
        (["pac", "--alpha", "5e-324", "--trials", "0"], "alpha"),
        (["pac", "--beta", "1e-320", "--trials", "0"], "beta"),
        (["validsig", "--mode", "forge", "--alpha", "1e-320", "--trials", "0"], "alpha"),
        (["sq", "--alpha", "1e-320", "--trials", "1"], "alpha"),
        (["trace", "--gamma", "1e-320", "--trials", "0"], "gamma"),
        (["trace", "--gamma", "1e-160", "--trials", "0"], "gamma"),
        (["trace", "--xi", "1e-320", "--trials", "0"], "xi"),
        (["trace", "--n", str(10**200), "--trials", "0"], "n"),
        (["trace", "--n", str(10**400), "--k-cap", "3", "--trials", "0"], "n"),
        # 1/alpha is finite, but the floor at the run's bit length is not
        (["sq", "--alpha", "1e-306", "--trials", "1"], "alpha"),
        (["sq", "--alpha", "5e-304", "--ell", "62", "--certifier", "signature", "--trials", "1"], "alpha"),
    ],
)
def test_exit_code_2_on_bad_flag_value(argv, field, capsys):
    assert main(argv) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, body, field",
    [
        ("pac", {"n": "5"}, "n"),
        ("pac", {"trials": "3"}, "trials"),
        ("games", {"mode": "synthetic", "trials": 1.5}, "trials"),
        ("hybrid", {"left": [1, "x"], "right": [2, 3], "ell": 4}, "left"),
        # json writes the infinite eps as the bare token Infinity
        ("trace", {"eps": math.inf, "ell": 32, "n": 2, "trials": 1, "k_cap": 5}, "eps"),
        ("pac", b"\xff\xfe{}", "<file>"),  # not UTF-8
    ],
)
def test_exit_code_2_on_bad_config_file_value(tmp_path, capsys, experiment, body, field):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
    assert main([experiment, "--config", str(cfg)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_exit_code_3_on_gate_failure():
    # the weak scheme fails the strong-correctness gate by design
    code = main(
        ["correctness", "--scheme", "opf", "--ell", "8", "--trials", "200", "--seed", "1"]
    )
    assert code == 3


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"trials": 3000, "seed": 9}))
    code = main(
        ["games", "--mode", "synthetic", "--config", str(cfg), "--trials", "2000"]
    )
    assert code == 0
    assert "max_gap" in capsys.readouterr().out


def test_config_file_mode_is_kept_without_mode_flag(tmp_path, capsys):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"mode": "synthetic", "trials": 2000, "seed": 9}))
    assert main(["games", "--config", str(cfg)]) == 0
    assert "max_gap" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", list(_MODES))
def test_from_dict_and_the_cli_share_the_first_mode_default(experiment):
    raw, argv = {"experiment": experiment}, [experiment]
    if experiment == "hybrid":
        raw.update(left=[0], right=[1])
        argv += ["--left", "0", "--right", "1"]
    from_dict = ExperimentConfig.from_dict(raw)
    from_cli = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert from_dict.mode == next(iter(_MODES[experiment]))
    assert from_dict.canonical_json() == from_cli.canonical_json()


def test_out_dir_and_formats(tmp_path):
    out = tmp_path / "reports"
    code = main(
        [
            "games",
            "--mode",
            "synthetic",
            "--trials",
            "2000",
            "--seed",
            "3",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    files = list(out.iterdir())
    assert len(files) == 1 and files[0].suffix == ".json"
    blob = json.loads(files[0].read_text())
    assert blob["passed"] is True


@pytest.mark.parametrize("target", ["file", "under a file"])
def test_exit_code_2_on_an_out_that_is_not_a_directory(target, tmp_path, capsys, monkeypatch):
    existing = tmp_path / "notes.md"
    existing.write_text("kept\n")
    out = existing if target == "file" else existing / "reports"
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran the experiment"))
    argv = ["trace", "--mode", "soundness", "--ell", "8", "--n", "3", "--drop-index", "1"]
    assert main(argv + ["--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and "Traceback" not in err
    assert existing.read_text() == "kept\n"


def test_csv_format_writes_trials_and_summary(tmp_path):
    out = tmp_path / "reports"
    code = main(
        ["hybrid", "--left", "1,2", "--right", "0,3", "--ell", "4", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert any(n.endswith("_trials.csv") for n in names)
    assert any(n.endswith("_summary.csv") for n in names)


_SWEEP_FLAGS = {
    "pac": ["--dist", "all"],
    "trace": ["--k-cap", "10", "--drop-index", "1"],
    "hybrid": ["--left", "0", "--right", "1"],
}


@pytest.mark.filterwarnings("ignore:n.2")  # gen_ex: n**2 crowds the domain
@pytest.mark.parametrize(
    "experiment, mode", [(e, m) for e, modes in _MODES.items() for m in modes]
)
def test_exit_code_is_0_2_or_3_at_small_ell(experiment, mode):
    # every mode at ell 1-4, on the strong and on the weak scheme: a run
    # passes, fails its gate, or is a config error; an exception (exit 1) is
    # never the answer
    for scheme in ("strengthened", "opf"):
        for ell in range(1, 5):
            argv = [experiment] + (["--mode", mode] if mode else [])
            argv += ["--ell", str(ell), "--trials", "2", "--scheme", scheme]
            argv += _SWEEP_FLAGS.get(experiment, [])
            assert main(argv) in (0, 2, 3), argv


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "1", "--ell", "16", "--trials", "400", "--seed", "1"],
        ["--ell", "16", "--n", "10", "--trials", "50", "--seed", "3"],
    ],
)
def test_reduction_gate_passes_the_honest_learner(flags, capsys):
    # the honest learner breaks no tracing soundness, so the reduction built
    # on it must show no advantage beyond noise, as random and payload do
    assert main(["games", "--mode", "reduction"] + flags) == 0
    assert "advantage = 0.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "mode, flags", [("random", set()), ("reduction", {"degenerate", "not_well_spaced"})]
)
def test_games_transcripts_in_the_json_report(mode, flags, tmp_path):
    out = tmp_path / "reports"
    argv = ["games", "--mode", mode, "--ell", "16", "--n", "4", "--trials", "30", "--seed", "5"]
    assert main(argv + ["--transcripts", "--out", str(out), "--format", "json"]) == 0
    (report,) = out.iterdir()
    transcripts = json.loads(report.read_text())["transcripts"]
    assert [t["trial"] for t in transcripts] == list(range(30))
    for t in transcripts:
        assert set(t) == {"trial", "bit", "guess", "win"} | flags
        assert t["win"] == (t["guess"] == t["bit"])
