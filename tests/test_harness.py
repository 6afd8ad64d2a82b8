"""Experiment harness: config schema, trial streams, report determinism."""

import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from orelearn.harness import (
    CSV_SCHEMA_VERSION,
    EXPERIMENTS,
    _MODES,
    ConfigError,
    ExperimentConfig,
    derive_trial_rng,
    run,
)
from orelearn.reident import concentration_sample_count


def _cfg(**kw):
    return ExperimentConfig.from_dict(kw)


# -- config schema ------------------------------------------------------------


def test_unknown_key_rejected_with_field_name():
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="pac", bogus_knob=1)
    assert err.value.field_path == "bogus_knob"


def test_missing_experiment_rejected():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"ell": 8})
    assert err.value.field_path == "experiment"


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="nope")
    assert err.value.field_path == "experiment"


def test_explicit_null_mode_is_kept():
    assert _cfg(experiment="sq", mode=None).mode is None
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="games", mode=None)
    assert err.value.field_path == "mode"


def test_unknown_mode_rejected_naming_field():
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="games", mode="telepathy")
    assert err.value.field_path == "mode"


def test_soundness_requires_drop_index():
    with pytest.raises(ConfigError) as err:
        _cfg(experiment="trace", mode="soundness", n=10)
    assert err.value.field_path == "drop_index"
    _cfg(experiment="trace", mode="soundness", n=10, drop_index=10)
    with pytest.raises(ConfigError):
        _cfg(experiment="trace", mode="soundness", n=10, drop_index=11)


def test_hybrid_requires_vectors():
    for bad in ({}, {"left": [1, 2], "right": [1]}, {"left": [1, 20], "right": [2, 3]}):
        with pytest.raises(ConfigError):
            _cfg(experiment="hybrid", ell=4, **bad)
    _cfg(experiment="hybrid", left=[1, 2], right=[0, 3])


def test_range_validation():
    for bad in (
        {"ell": 0},
        {"ell": 65},
        {"ell": 63},  # past pac's largest workable ell
        {"alpha": 0.0},
        {"beta": 1.0},
        {"gamma": 0.6},
        {"xi": 0.0},
        {"eps": -1.0},
        {"trials": -1},
        {"seed": -1},
        {"seed": 1 << 64},
        {"k_cap": 0},
        {"scheme": "rot13"},
        {"certifier": "notary"},
        {"dist": "cauchy"},
        {"keyspace": "huge"},
        # mistyped values: ints are valid floats, but bools are not ints
        {"n": "5"},
        {"seed": True},
        {"trials": 2.0},
        {"alpha": "0.1"},
        {"alpha": False},
        {"transcripts": 1},
        {"mode": 3},
        {"k_cap": 1.5},
        {"left": [1, True]},
        {"left": "1,2"},
    ):
        with pytest.raises(ConfigError) as err:
            _cfg(experiment="pac", **bad)
        assert err.value.field_path == next(iter(bad))
    _cfg(experiment="pac", eps=1, seed=(1 << 64) - 1, k_cap=1)


def test_ell_limit_per_experiment_mode():
    for experiment, mode, limit in (
        ("pac", None, 62),
        ("sq", "jitter", 62),
        ("correctness", None, 63),
        ("trace", "completeness", 63),
        ("games", "reduction", 63),
        ("games", "random", 64),
        ("validsig", "forge", 64),
    ):
        _cfg(experiment=experiment, mode=mode, ell=limit)
        with pytest.raises(ConfigError) as err:
            _cfg(experiment=experiment, mode=mode, ell=limit + 1)
        assert err.value.field_path == "ell"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(EXPERIMENTS),
    st.dictionaries(
        st.sampled_from(sorted(ExperimentConfig.__dataclass_fields__)) | st.text(max_size=4),
        _JSON_VALUES,
    ),
)
def test_any_json_object_gives_a_config_or_a_config_error(experiment, raw):
    try:
        cfg = ExperimentConfig.from_dict({"experiment": experiment, **raw})
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    cfg.config_hash()


def test_canonical_json_and_hash_stable():
    a = _cfg(experiment="pac", ell=12, seed=3)
    b = ExperimentConfig.from_dict(json.loads(a.canonical_json()) | {})
    assert a.canonical_json() == b.canonical_json()
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != _cfg(experiment="pac", ell=12, seed=4).config_hash()


# -- trial streams --------------------------------------------------------------


def test_trial_streams_differ_between_indices():
    a = derive_trial_rng(7, 0).bytes(32)
    b = derive_trial_rng(7, 1).bytes(32)
    assert a != b


def test_trial_streams_reproducible():
    assert derive_trial_rng(7, 3).bytes(32) == derive_trial_rng(7, 3).bytes(32)


def test_distinct_master_seeds_give_distinct_streams():
    seen = {bytes(derive_trial_rng(seed, 0).bytes(8)) for seed in range(1000)}
    assert len(seen) == 1000


def test_label_separates_streams():
    assert derive_trial_rng(7, 0, b"a").bytes(16) != derive_trial_rng(7, 0, b"b").bytes(16)


def test_numpy_draws_match_known_answers():
    # one draw of each kind the library makes, in this order, from one stream:
    # the pinned CSV digests rest on numpy's Generator algorithms, so a numpy
    # release that changes any of them fails here by name
    rng = derive_trial_rng(0, 0)
    assert int(rng.integers(0, 2**32)) == 2669182782
    assert rng.integers(0, 2**32, size=4).tolist() == [2400038311, 800289258, 2540061941, 1497799834]
    assert int(rng.integers(0, 2**62)) == 2615489604093829636
    assert rng.integers(0, 2**62, size=3).tolist() == [
        2466305132976534068, 1093773649351304379, 2135738006049145408
    ]
    assert float(rng.random()) == 0.45775444830421985
    assert rng.random(3).tolist() == [0.3671232041514768, 0.44012230246661965, 0.4732683216713345]
    assert bytes(rng.bytes(12)).hex() == "8fd6b971c5b67c8c256b1f7c"
    assert float(rng.uniform(-0.25, 0.25)) == 0.024772095184839693
    assert rng.choice(2**16, size=4, replace=False).tolist() == [2503, 21053, 53925, 56681]
    assert rng.choice(2**62, size=3, replace=False).tolist() == [
        3328612855088208075, 485957707835317488, 2224424818722584159
    ]
    assert rng.dirichlet([1.0] * 3).tolist() == [
        0.012672209713617022, 0.6069540637662317, 0.38037372652015117
    ]


# -- reports ----------------------------------------------------------------------


def _small_configs():
    return [
        {"experiment": "correctness", "ell": 10, "trials": 150, "seed": 5},
        {"experiment": "pac", "ell": 12, "trials": 5, "seed": 5, "dist": "uniform"},
        {
            "experiment": "trace",
            "mode": "completeness",
            "ell": 24,
            "n": 8,
            "trials": 2,
            "seed": 5,
            "k_cap": 80,
        },
        {"experiment": "games", "mode": "synthetic", "trials": 4000, "seed": 5},
        {"experiment": "hybrid", "left": [1, 5, 9], "right": [2, 5, 8], "ell": 4},
        {"experiment": "sq", "ell": 8, "trials": 2, "seed": 5},
        {"experiment": "validsig", "mode": "learn", "ell": 64, "trials": 4, "seed": 5},
    ]


def test_rerun_reproduces_identical_csv_bodies():
    for raw in _small_configs():
        cfg = ExperimentConfig.from_dict(raw)
        r1, r2 = run(cfg), run(cfg)
        assert r1.csv_trials() == r2.csv_trials(), raw["experiment"]
        assert r1.csv_summary() == r2.csv_summary(), raw["experiment"]


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "correctness", "ell": 8, "trials": 40, "seed": 5},
        {"experiment": "sq", "ell": 8, "trials": 2, "seed": 5},
    ],
)
def test_lam_changes_nothing_but_the_config_hash(raw):
    # lam is hashed into the first line of every CSV body and read by nothing else
    r128 = run(ExperimentConfig.from_dict({**raw, "lam": 128}))
    r256 = run(ExperimentConfig.from_dict({**raw, "lam": 256}))
    _assert_same_bodies_under_other_hashes(r128, r256)


def _assert_same_bodies_under_other_hashes(r1, r2):
    for body in ("csv_trials", "csv_summary"):
        a, b = getattr(r1, body)(), getattr(r2, body)()
        assert a.split("\n", 1)[0] != b.split("\n", 1)[0]
        assert a.split("\n", 1)[1] == b.split("\n", 1)[1]


def _every_mode_small():
    for experiment, modes in _MODES.items():
        for mode in modes:
            raw = {"experiment": experiment, "mode": mode, "ell": 10, "n": 4, "trials": 3, "seed": 1}
            if experiment == "trace":
                raw.update(ell=24, k_cap=40, drop_index=1 if mode == "soundness" else None)
            elif experiment == "hybrid":
                raw.update(ell=4, left=[1, 5, 9], right=[2, 5, 8])
            elif experiment == "validsig":
                raw["ell"] = 64
            marks = ()
            if mode == "synthetic":
                # the game name synthetic(p=1.0,q=0.0) is written unquoted;
                # quoting it changes the pinned body (ROADMAP item 5)
                marks = pytest.mark.xfail(strict=True, reason="unquoted comma in a cell")
            yield pytest.param(raw, id=f"{experiment}-{mode}", marks=marks)


@pytest.mark.parametrize("raw", _every_mode_small())
def test_every_csv_row_is_as_wide_as_its_header(raw):
    report = run(ExperimentConfig.from_dict(raw))
    for body in (report.csv_trials(), report.csv_summary()):
        preamble, header, *rows = csv.reader(io.StringIO(body))
        assert preamble[0] == CSV_SCHEMA_VERSION
        assert [len(row) for row in rows] == [len(header)] * len(rows), body


def _ascending(ell):
    return st.lists(st.integers(0, (1 << ell) - 1), min_size=1, max_size=4, unique=True).map(sorted)


@st.composite
def _small_raw_configs(draw):
    # every field drawn, the sizes small; k_cap bounds the trace estimator's
    # draws per bucket
    experiment = draw(st.sampled_from(EXPERIMENTS))
    ell = draw(st.integers(1, 16))
    n = draw(st.integers(1, 8))
    keyspace = draw(st.sampled_from(["oracle", "tiny"]))
    # the tiny keyspace is a 65,536-key search whatever the sizes, and under
    # the signature certifier each key sets up an Ed25519 key: seconds a trial
    certifiers = ["escrow"] if keyspace == "tiny" else ["escrow", "signature"]
    # alpha and beta set the pac and validsig sample sizes; elsewhere any value
    sized = experiment in ("pac", "validsig")
    return {
        "experiment": experiment,
        "mode": draw(st.sampled_from(list(_MODES[experiment]))),
        "lam": draw(st.integers(1, 256)),
        "ell": ell,
        "n": n,
        "alpha": draw(st.floats(0.05 if sized else 0, 1, exclude_min=not sized, exclude_max=True)),
        "beta": draw(st.floats(0.01 if sized else 0, 1, exclude_min=not sized, exclude_max=True)),
        # mostly workable, sometimes near 0, where a derived count overflows
        "gamma": draw(st.floats(0.01, 0.5) | st.floats(0, 0.5, exclude_min=True)),
        "xi": draw(st.floats(0.001, 0.999) | st.floats(0, 1, exclude_min=True, exclude_max=True)),
        "eps": draw(st.floats(0, 700)),
        "trials": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, (1 << 64) - 1)),
        "scheme": draw(st.sampled_from(["opf", "strengthened"])),
        "certifier": draw(st.sampled_from(certifiers)),
        "dist": draw(st.sampled_from(["uniform", "malformed", "wrongparams", "pointmass", "all"])),
        "drop_index": draw(st.none() | st.integers(1, n)),
        "k_cap": draw(st.integers(1, 20)),
        "left": draw(_ascending(ell)),
        "right": draw(_ascending(ell)),
        "keyspace": keyspace,
        "transcripts": draw(st.booleans()),
    }


@pytest.mark.filterwarnings("ignore:n\\^2 = .* well-spacing:UserWarning")
@settings(max_examples=80, deadline=None)
@given(_small_raw_configs())
def test_every_small_config_that_validates_runs_and_writes_csv(raw):
    # a config that validates runs to a report whose CSV bodies parse
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    report = run(cfg)
    for body in (report.csv_trials(), report.csv_summary()):
        preamble, header, *_ = csv.reader(io.StringIO(body))
        assert preamble[0] == CSV_SCHEMA_VERSION


def test_sq_without_a_mode_writes_the_exact_mode_rows():
    # sq's None and "exact" are two spellings of one mode (ROADMAP item 5
    # drops None): equal bodies under different config hashes
    raw = {"experiment": "sq", "ell": 10, "trials": 3, "seed": 5}
    default = run(ExperimentConfig.from_dict(raw))
    exact = run(ExperimentConfig.from_dict({**raw, "mode": "exact"}))
    assert default.config.mode is None
    _assert_same_bodies_under_other_hashes(default, exact)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_zero_trials_is_an_empty_success():
    # every experiment and mode but hybrid, whose verdict needs no trials
    for experiment, modes in _MODES.items():
        if experiment == "hybrid":
            continue
        for mode in modes:
            raw = {"experiment": experiment, "mode": mode, "ell": 10, "n": 4, "trials": 0}
            if mode == "soundness":
                raw["drop_index"] = 1
            report = run(ExperimentConfig.from_dict(raw))
            assert report.passed is None, (experiment, mode)
            # strict JSON: a rate over no trials is null, never a NaN token
            blob = json.loads(report.to_json(), parse_constant=_reject_constant)
            assert blob["passed"] is None, (experiment, mode)
            if experiment in ("pac", "trace", "sq", "validsig"):  # one row per trial
                assert report.rows == [], (experiment, mode)


def test_synthetic_games_at_zero_trials_warn_nothing():
    cfg = _cfg(experiment="games", mode="synthetic", trials=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(cfg)
    assert report.passed is None
    assert [row["trials"] for row in report.rows] == [0, 0, 0]
    assert all(math.isnan(row["advantage"]) for row in report.rows)
    assert math.isnan(report.aggregates["max_gap"])


# n=1, gamma=xi=0.5: K = ceil(32 ln 18) = 93 draws per bucket, so a trial is cheap
_SMALL_K = 93


@pytest.mark.parametrize("mode", ["completeness", "soundness"])
@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize(
    "k_cap, conforming",
    [(_SMALL_K - 1, False), (_SMALL_K, True), (_SMALL_K + 1, True), (None, True)],
)
def test_k_conforming_is_the_configs_cap_against_k(mode, trials, k_cap, conforming):
    # a fact about the config, so a run of zero trials reports it too
    raw = {"experiment": "trace", "mode": mode, "ell": 32, "n": 1, "gamma": 0.5, "xi": 0.5}
    raw.update(trials=trials, k_cap=k_cap, drop_index=1 if mode == "soundness" else None)
    assert concentration_sample_count(1, 0.5, 0.5) == _SMALL_K
    assert run(ExperimentConfig.from_dict(raw)).aggregates["k_conforming"] is conforming


def test_csv_headers_are_versioned_and_pinned():
    assert CSV_SCHEMA_VERSION == "orelearn.csv.v1"
    cfg = ExperimentConfig.from_dict(
        {"experiment": "hybrid", "left": [1, 2], "right": [0, 3], "ell": 4}
    )
    report = run(cfg)
    lines = report.csv_trials().splitlines()
    assert lines[0].startswith("orelearn.csv.v1,config=")
    assert lines[1] == "index,vector"


_EXPECTED_COLUMNS = {
    "correctness": ["check", "class", "checked", "failures"],
    "pac": ["family", "trial", "n", "error", "good", "one_sided_ok", "hypothesis"],
    "trace": ["trial", "well_spaced", "error", "accused", "good_and_untraced"],
    "games": ["game", "trials", "advantage", "ci_lo", "ci_hi"],
    "hybrid": ["index", "vector"],
    "sq": ["trial", "queries", "recovered_t", "true_t", "error", "hypothesis"],
    "validsig": ["trial", "outcome", "detail"],
}


def test_per_experiment_columns_pinned():
    for raw in _small_configs():
        cfg = ExperimentConfig.from_dict(raw)
        report = run(cfg)
        assert report.columns == _EXPECTED_COLUMNS[cfg.experiment], cfg.experiment


def test_report_write_and_json_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"experiment": "hybrid", "left": [1, 5, 9], "right": [2, 5, 8], "ell": 4}
    )
    report = run(cfg)
    paths = report.write(tmp_path)
    names = sorted(p.name for p in paths)
    assert any(n.endswith(".json") for n in names)
    assert any(n.endswith("_trials.csv") for n in names)
    blob = json.loads((tmp_path / paths[0].name).read_text())
    assert blob["config_hash"] == cfg.config_hash()
    assert blob["passed"] is True
    assert blob["schema"] == CSV_SCHEMA_VERSION
