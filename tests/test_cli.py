"""CLI surface: subcommands, config files, exit codes, report files."""

import json

import pytest

from orelearn.cli import main


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


def test_csv_format_writes_trials_and_summary(tmp_path):
    out = tmp_path / "reports"
    code = main(
        ["hybrid", "--left", "1,2", "--right", "0,3", "--ell", "4", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert any(n.endswith("_trials.csv") for n in names)
    assert any(n.endswith("_summary.csv") for n in names)
