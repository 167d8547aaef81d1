import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from corpus import distinct_pois, planted_corpus
from oracles import canonical_rows, params_lines

from matirec import cli
from matirec.cli import main
from matirec.config import fingerprint, load_config, serialize_config
from matirec.errors import ConfigError, DataError
from matirec.ingest import CheckInLog, serialize_log, serialize_social
from matirec.mati import TextPieces


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small corpus on disk plus a config file pointing at it."""
    root = tmp_path_factory.mktemp("ws")
    log = planted_corpus(n_users=60, seed=12)
    checkins = root / "checkins.tsv"
    social = root / "social.tsv"
    checkins.write_text(serialize_log(log), encoding="utf-8")
    social.write_text(serialize_social(log), encoding="utf-8")
    config = root / "run.cfg"
    config.write_text(
        "[run]\n"
        "seed = 42\n"
        "[data]\n"
        f"checkins = {checkins}\n"
        f"social = {social}\n"
        "[sampling]\n"
        "m_min = 10\n"
        "n_percent = 25\n"
        "[usg]\n"
        "alpha = 0.2\n"
        "beta = 0.3\n"
        "[hybrid]\n"
        "psi_low = 0.02\n"
        "psi_high = 0.98\n"
        "[eval]\n"
        "test_fraction = 0.3\n"
        "ns = 5,10\n"
        "models = ubcf,usg,mati,hybrid\n",
        encoding="utf-8")
    return root, config


def test_config_roundtrip_idempotent(workspace, tmp_path):
    _, config = workspace
    cfg = load_config(config, env={})
    text = serialize_config(cfg)
    requoted = tmp_path / "canonical.cfg"
    requoted.write_text(text, encoding="utf-8")
    cfg2 = load_config(requoted, env={})
    assert serialize_config(cfg2) == text


def test_config_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sampling]\nm_minn = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="sampling.m_minn"):
        load_config(bad, env={})


def test_config_unknown_section_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[samplings]\nm_min = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="samplings"):
        load_config(bad, env={})


def test_config_env_override(workspace):
    _, config = workspace
    cfg = load_config(config, env={"MATI_SAMPLING_M_MIN": "7", "MATI_RUN_SEED": "9"})
    assert cfg.sampling.m_min == 7
    assert cfg.seed == 9


def test_config_out_of_bounds_value(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[eval]\nx = 1.4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="eval.x"):
        load_config(bad, env={})


@pytest.mark.parametrize("key,value", [
    ("usg.bin_km", "0"), ("usg.bin_km", "-0.5"), ("usg.bin_km", "nan"), ("usg.bin_km", "inf"),
    ("usg.d_min_km", "0"), ("usg.d_min_km", "-0.1"), ("usg.d_min_km", "nan"),
    ("usg.d_min_km", "inf"), ("factors.hac_threshold", "nan"),
    ("factors.hac_threshold_hour", "1.5"), ("factors.hac_threshold_day", "1.5"),
    ("factors.hac_threshold_hour", "nan"), ("factors.hac_threshold_day", "inf"),
    ("factors.hac_threshold_day", "-inf"), ("mf.reg", "nan"), ("mf.reg", "inf"),
    ("mf.reg", "-0.5"), ("mf.tol", "-1"), ("mf.tol", "nan"), ("mf.iters", "-1"),
    ("mf.iters", "0"), ("mati.gamma", "nan"), ("mati.gamma", "inf"), ("mati.em_tol", "nan"),
    ("mati.em_tol", "-1"), ("mati.em_max_iter", "-3"), ("univariate.theta", "nan"),
    ("univariate.theta", "inf"), ("data.utc_offset_hours", "15"),
    ("data.utc_offset_hours", "-13"), ("data.column_format", "user,time,lat,lon"),
    ("data.column_format", "user,time,lat,lon,poi,poi")])
def test_config_refuses_non_finite_or_out_of_range_values(workspace, tmp_path, monkeypatch,
                                                          capsys, key, value):
    """A distance bin or floor that is not a positive finite number, a
    similarity threshold or per-factor override that is not finite or is
    above 1, and a completion or EM setting that is not finite or is below
    its floor, are config errors (exit 2) before the log is read, not a
    traceback from the geo fit, a threshold nothing can reach, hour slots
    merged through NaN similarities or a NaN log-likelihood trace.  So are a
    NaN POI-act cut (every POI would land in the neutral bucket), a UTC
    offset no place has, and a column format that does not permute the five
    columns (not a data error, exit 3, from the parser)."""
    _, config = workspace
    variable = "MATI_" + key.replace(".", "_").upper()
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(config, env={variable: value})
    monkeypatch.setenv(variable, value)
    code = main(["--config", str(config), "train", "--slabs", str(tmp_path / "slabs.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("hours", ["3000000000000000", "100000000000", "-30"])
def test_cli_slabs_refuses_utc_offset_beyond_real_offsets(workspace, tmp_path, monkeypatch,
                                                          capsys, hours):
    """An offset outside [-12, 14] hours exits 2 naming the key, not 1 with an
    ``OverflowError`` traceback, nor 0 with every slot shifted by days."""
    _, config = workspace
    monkeypatch.setenv("MATI_DATA_UTC_OFFSET_HOURS", hours)
    assert main(["--config", str(config), "slabs", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "data.utc_offset_hours" in err and "Traceback" not in err
    for edge in (-12, 14):
        cfg = load_config(env={"MATI_DATA_UTC_OFFSET_HOURS": str(edge)})
        assert cfg.data.utc_offset_hours == edge


@pytest.mark.parametrize("value", ["-1", "-0.5", "0.3"])
def test_config_threshold_override_below_zero_inherits(value):
    cfg = load_config(env={"MATI_FACTORS_HAC_THRESHOLD_DAY": value})
    assert cfg.factors.threshold_for("day") == (0.6 if float(value) < 0 else 0.3)
    assert cfg.factors.threshold_for("hour") == 0.6


def test_fingerprint_changes_with_seed(workspace):
    _, config = workspace
    a = load_config(config, env={})
    b = load_config(config, env={})
    b.seed = 43
    assert fingerprint(a) != fingerprint(b)


def test_cli_missing_config_exits_2():
    assert main(["--config", "/nonexistent/x.cfg", "stats"]) == 2


def test_cli_bad_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[mati]\nphi = 0.7\n", encoding="utf-8")
    assert main(["--config", str(bad), "stats"]) == 2
    assert "mati.phi" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[eval]\nns = 5\nns = 10\n", "ns = 5\n[eval]\n",
                                  "[eval\nns = 5\n", "[run]\nseed = 1\n[eval\nns = 5\n",
                                  "[eval]\nx = 0.3\n[eval]\nx = 0.4\n"],
                         ids=["repeated-key", "line-before-any-section", "broken-first-header",
                              "broken-later-header", "repeated-section"])
def test_cli_config_syntax_error_exits_2_naming_the_file(tmp_path, capsys, text):
    """A config file ``configparser`` cannot read is a config error, not a
    traceback: exit 2 with one ``error:`` line that names the file."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.cfg"):
        load_config(bad, env={})
    assert main(["--config", str(bad), "stats"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


def test_cli_stats(workspace, capsys, tmp_path):
    _, config = workspace
    code = main(["--config", str(config), "stats", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "n_users=60" in out
    assert (tmp_path / "stats.txt").exists()
    assert (tmp_path / "user_act_histogram.csv").exists()
    assert (tmp_path / "poi_act_histogram.csv").exists()


def test_cli_ingest_writes_canonical_cache(workspace, tmp_path):
    _, config = workspace
    out = tmp_path / "ingest"
    assert main(["--config", str(config), "ingest", "--out", str(out)]) == 0
    summary = json.loads((out / "ingest.json").read_text())
    assert summary["skipped_lines"] == 0
    cache = (out / "checkins.tsv").read_text()
    assert cache.startswith("# fingerprint=")
    # The stamped cache re-parses to the same log as the raw input.
    from matirec.ingest import parse_checkins
    root, _ = workspace
    original = parse_checkins(str(root / "checkins.tsv"))
    assert canonical_rows(parse_checkins(str(out / "checkins.tsv"))) == canonical_rows(original)


@pytest.mark.parametrize("on_error,code", [("abort", 3), ("skip", 0)])
def test_cli_on_error_applies_to_the_social_file(tmp_path, on_error, code):
    """A social line that is not ``a TAB b`` exits 3 under abort and is
    skipped under skip, as a malformed check-in line is."""
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text("u1\t100\t0.0\t0.0\tp1\nu2\t200\t0.0\t0.0\tp1\n", encoding="utf-8")
    social = tmp_path / "social.tsv"
    social.write_text("u1\tu2\nnot an edge\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"[data]\ncheckins = {checkins}\nsocial = {social}\n"
                      f"on_error = {on_error}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(config), "ingest", "--out", str(out)]) == code
    if code == 0:
        assert (out / "social.tsv").read_text().splitlines()[1:] == ["u1\tu2"]


@pytest.mark.parametrize("missing", ["params", "slabs", "checkins", "social"])
def test_cli_missing_input_file_exits_3_naming_it(workspace, trained_dir, tmp_path, capsys,
                                                   missing):
    """An input file that is not there is a data error that names it, not a
    traceback: ``--params``, ``--slabs``, ``data.checkins`` and ``data.social``."""
    root, config = workspace
    nope = tmp_path / f"nope-{missing}"
    slabs, params = str(trained_dir / "slab_index.json"), str(trained_dir / "mati_params.json")
    if missing in ("checkins", "social"):
        moved = tmp_path / "run.cfg"
        moved.write_text(config.read_text().replace(str(root / f"{missing}.tsv"), str(nope)),
                         encoding="utf-8")
        config = moved
    argv = {"params": ["recommend", "--slabs", slabs, "--params", str(nope), "--user", "a0_0"],
            "slabs": ["train", "--slabs", str(nope), "--out", str(tmp_path / "out")]
            }.get(missing, ["train", "--slabs", slabs, "--out", str(tmp_path / "out")])
    assert main(["--config", str(config), *argv]) == 3
    assert str(nope) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("ns", "0,5"), ("ns", "5,-1"), ("ns", "5,10,5"),
                                       ("models", "usg,foo"), ("models", ","), ("models", ""),
                                       ("models", "usg,mati,usg")],
                         ids=["ns-zero", "ns-negative", "ns-repeated", "models-unknown",
                              "models-comma", "models-empty", "models-repeated"])
def test_cli_evaluate_refuses_bad_eval_config_before_parsing(workspace, tmp_path, monkeypatch,
                                                             capsys, key, value):
    """A list size below 1 or repeated and an unknown, repeated or empty model list are
    config errors found before the log is read, not after every model is
    trained (or, for an empty list, a report with no models)."""
    _, config = workspace

    def no_log(*_args, **_kwargs):
        raise AssertionError("evaluate must check its config before it reads the log")

    monkeypatch.setattr(cli, "_load_log", no_log)
    monkeypatch.setenv(f"MATI_EVAL_{key.upper()}", value)
    assert main(["--config", str(config), "evaluate", "--out", str(tmp_path / "out")]) == 2
    assert f"eval.{key}" in capsys.readouterr().err


def test_cli_recommend_refuses_unknown_model_before_reading(workspace, trained_dir, monkeypatch,
                                                            capsys):
    _, config = workspace

    def no_log(*_args, **_kwargs):
        raise AssertionError("recommend must check --model before it reads its inputs")

    monkeypatch.setattr(cli, "_load_log", no_log)
    monkeypatch.setattr(cli, "params_from_json", no_log)
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(trained_dir / "mati_params.json"),
                 "--user", "a0_0", "--model", "foo"])
    assert code == 2
    assert "--model" in capsys.readouterr().err


def test_cli_slabs_train_recommend(workspace, tmp_path):
    _, config = workspace
    slab_dir = tmp_path / "slabs"
    assert main(["--config", str(config), "slabs", "--out", str(slab_dir)]) == 0
    assert (slab_dir / "slab_index.json").exists()
    assert (slab_dir / "similarity_hour.csv").exists()
    assert (slab_dir / "coverage.csv").exists()

    train_dir = tmp_path / "train"
    assert main(["--config", str(config), "train",
                 "--slabs", str(slab_dir / "slab_index.json"),
                 "--out", str(train_dir)]) == 0
    geo = json.loads((train_dir / "geo_model.json").read_text())
    assert geo["b"] < 0  # distance decay fitted on the planted geography
    report = json.loads((train_dir / "em_report.json").read_text())
    assert report["converged"] is True
    ll = report["log_likelihood"]
    assert all(b >= a - 1e-6 * max(1, abs(a)) for a, b in zip(ll, ll[1:]))

    rec_dir = tmp_path / "rec"
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(slab_dir / "slab_index.json"),
                 "--params", str(train_dir / "mati_params.json"),
                 "--user", "a0_0", "--n", "5", "--model", "mati",
                 "--out", str(rec_dir)])
    assert code == 0
    lines = (rec_dir / "recommendations.csv").read_text().splitlines()
    assert lines[1] == "user_id,rank,poi_id,score,path"
    assert len(lines) == 7  # fingerprint + header + 5 rows


def test_cli_stale_params_checksum_exits_3(workspace, tmp_path):
    _, config = workspace
    slab_dir = tmp_path / "slabs"
    main(["--config", str(config), "slabs", "--out", str(slab_dir)])
    train_dir = tmp_path / "train"
    main(["--config", str(config), "train",
          "--slabs", str(slab_dir / "slab_index.json"), "--out", str(train_dir)])
    params = json.loads((train_dir / "mati_params.json").read_text())
    params["slab_checksum"] = "0" * 64
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(params), encoding="utf-8")
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(slab_dir / "slab_index.json"),
                 "--params", str(stale), "--user", "a0_0", "--n", "3"])
    assert code == 3


@pytest.fixture(scope="module")
def trained_dir(workspace, tmp_path_factory):
    """slab_index.json and mati_params.json trained on the workspace log."""
    _, config = workspace
    out = tmp_path_factory.mktemp("trained")
    assert main(["--config", str(config), "slabs", "--out", str(out)]) == 0
    assert main(["--config", str(config), "train",
                 "--slabs", str(out / "slab_index.json"), "--out", str(out)]) == 0
    return out


def test_cli_recommend_with_params_skips_em(workspace, trained_dir, tmp_path, monkeypatch):
    _, config = workspace

    def no_em(*_args, **_kwargs):
        raise AssertionError("recommend --params must not run EM")

    monkeypatch.setattr("matirec.pipeline.run_em", no_em)
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(trained_dir / "mati_params.json"),
                 "--user", "a0_0", "--user", "b0_0", "--n", "5", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "recommendations.csv").read_text().splitlines()[2:]
    assert len(rows) == 10
    assert all(row.split(",")[4] in ("temporal", "non_temporal") for row in rows)


def test_cli_recommend_params_from_other_log_exits_3(workspace, trained_dir, tmp_path, capsys):
    root, config = workspace
    lines = (root / "checkins.tsv").read_text().splitlines(keepends=True)
    other = tmp_path / "checkins.tsv"
    other.write_text("".join(line for line in lines if not line.startswith("a0_1\t")),
                     encoding="utf-8")
    other_config = tmp_path / "run.cfg"
    other_config.write_text(config.read_text().replace(str(root / "checkins.tsv"), str(other)),
                            encoding="utf-8")
    code = main(["--config", str(other_config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(trained_dir / "mati_params.json"),
                 "--user", "a0_0", "--n", "5"])
    assert code == 3
    assert "different check-in log" in capsys.readouterr().err


def _resealed(payload: dict) -> dict:
    """The slab index with its checksum recomputed over what is left, as
    ``SlabIndex.to_json`` computes it."""
    payload = {k: v for k, v in payload.items() if k not in ("checksum", "fingerprint")}
    text = json.dumps(payload, sort_keys=True).encode("utf-8")
    return {**payload, "checksum": hashlib.sha256(text).hexdigest()}


def _without(*path):
    def damage(payload):
        *parents, last = path
        node = payload
        for key in parents:
            node = node[key]
        del node[last]
        return _resealed(payload)
    return damage


@pytest.mark.parametrize("damage", [lambda _: [], lambda _: "x", _without("slabs"),
                                    _without("factors"), _without("factors", 0, "slot_count"),
                                    _without("slabs", "hour")],
                         ids=["list", "string", "no-slabs", "no-factors", "no-slot-count",
                              "no-hour-slabs"])
def test_cli_train_malformed_slab_index_exits_3(workspace, trained_dir, tmp_path, capsys, damage):
    _, config = workspace
    index = json.loads((trained_dir / "slab_index.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(damage(index)), encoding="utf-8")
    code = main(["--config", str(config), "train", "--slabs", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "slab index" in capsys.readouterr().err


def test_cli_recommend_unknown_user_exits_3(workspace, tmp_path):
    _, config = workspace
    slab_dir = tmp_path / "slabs"
    main(["--config", str(config), "slabs", "--out", str(slab_dir)])
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(slab_dir / "slab_index.json"),
                 "--user", "nobody", "--n", "3"])
    assert code == 3


def test_cli_evaluate_deterministic_bytes(workspace, tmp_path):
    _, config = workspace
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["--config", str(config), "--seed", "42", "evaluate", "--out", str(out1)]) == 0
    assert main(["--config", str(config), "--seed", "42", "evaluate", "--out", str(out2)]) == 0
    assert (out1 / "eval_report.json").read_bytes() == (out2 / "eval_report.json").read_bytes()
    assert (out1 / "eval_users.csv").read_bytes() == (out2 / "eval_users.csv").read_bytes()


def test_cli_tune_phi_grid(workspace, tmp_path):
    _, config = workspace
    out = tmp_path / "tune"
    code = main(["--config", str(config), "tune", "--param", "phi_t",
                 "--grid", "0:1:0.5", "--out", str(out)])
    assert code == 0
    best = json.loads((out / "tune_best.json").read_text())
    assert best["parameter"] == "phi_t"
    curve = (out / "tune_curve.csv").read_text().splitlines()
    assert curve[1] == "phi_t,f1@5"
    assert len(curve) == 5  # fingerprint + header + 3 grid points


def test_cli_tune_rejects_unknown_param(workspace):
    _, config = workspace
    assert main(["--config", str(config), "tune", "--param", "zeta", "--grid", "0:1:0.5"]) == 2


@pytest.mark.parametrize("flag,value", [("--objective", "f1@x"), ("--objective", "foo@5"),
                                        ("--objective", "f1@0"), ("--grid", "a:1:0.5"),
                                        ("--grid", "0:1:x"), ("--grid", "0,x"),
                                        ("--grid", "nan"), ("--grid", "0:nan:0.5"),
                                        ("--grid", "0:1:inf"), ("--grid", "0.5,inf")],
                         ids=["objective-n", "objective-metric", "objective-n-zero",
                              "grid-range", "grid-step", "grid-list", "grid-nan",
                              "grid-nan-range", "grid-inf-step", "grid-inf-list"])
def test_cli_tune_rejects_malformed_arguments_before_training(workspace, monkeypatch, flag,
                                                              value):
    _, config = workspace

    def no_training(*_args, **_kwargs):
        raise AssertionError("tune must check its arguments before it trains")

    monkeypatch.setattr(cli, "train_models", no_training)
    args = {"--param": "phi_t", "--grid": "0:1:0.5", "--objective": "f1@5", flag: value}
    assert main(["--config", str(config), "tune", *sum(args.items(), ())]) == 2


def _damage_missing_pr_nu(params):
    del params["pr_nu"]


def _damage_truncated_poi_row(params):
    chain = params["poi_tables"][min(params["poi_tables"])]
    chain[1][0].pop()


def _damage_non_numeric_entry(params):
    chain = params["pair_tables"][min(params["pair_tables"])]
    chain[1][0][0] = "0.5"


def _damage_layout_mismatch(params):
    params["layout"]["shape"][-1] += 1


def _damage_pr_nu_keys(params):
    key = min(params["pr_nu"])
    params["pr_nu"]["x\ty"] = params["pr_nu"].pop(key)


def _damage_nan_pr_nu(params):
    params["pr_nu"][min(params["pr_nu"])] = math.nan


def _move_a_bracket(chain):
    """The last number of the first hour row opens the second one instead."""
    hours = chain[1]
    hours[0], hours[1] = hours[0][:-1], hours[0][-1:] + hours[1]


def _split_a_row(chain):
    hours = chain[1]
    hours[2:3] = [hours[2][:12], hours[2][12:]]


def _nest_a_row(chain):
    chain[1][0] = [chain[1][0]]


def _put_in_a_row(value):
    def damage(chain):
        chain[1][0][0] = value
    return damage


# The row-text reader cuts chain texts at brackets and decodes rows as text.
_CHAIN_DAMAGE = {"bracket-moved": _move_a_bracket, "row-split": _split_a_row,
                 "extra-level": _nest_a_row, "true": _put_in_a_row(True),
                 "null": _put_in_a_row(None), "string": _put_in_a_row("0.5")}
_CHAIN_TABLES = ("pair_tables", "poi_tables", "global_table")


def _in_chain(table, damage):
    def damage_params(params):
        chains = params[table]
        damage(chains if table == "global_table" else chains[min(chains)])
    return damage_params


@pytest.mark.parametrize("damage", [_damage_missing_pr_nu, _damage_truncated_poi_row,
                                    _damage_non_numeric_entry, _damage_layout_mismatch,
                                    _damage_pr_nu_keys, _damage_nan_pr_nu,
                                    *(_in_chain(table, damage) for damage in _CHAIN_DAMAGE.values()
                                      for table in _CHAIN_TABLES)],
                         ids=["missing-key", "ragged-table", "non-numeric", "wrong-shape",
                              "pr-nu-keys", "nan-pr-nu",
                              *(f"{name}-{table.split('_')[0]}" for name in _CHAIN_DAMAGE
                                for table in _CHAIN_TABLES)])
def test_cli_recommend_malformed_params_exits_3(workspace, trained_dir, tmp_path, capsys,
                                                damage):
    _, config = workspace
    text = (trained_dir / "mati_params.json").read_text(encoding="utf-8")
    params = json.loads(text)
    assert params_lines(params.items()) == text  # only the damage differs from the writer's text
    damage(params)
    bad = tmp_path / "bad.json"
    bad.write_text(params_lines(params.items()), encoding="utf-8")
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(bad), "--user", "a0_0", "--n", "3"])
    assert code == 3
    assert "model parameters" in capsys.readouterr().err


def _respelled(damage):
    """The parameter text with ``damage`` applied to its decoded members:
    each object's (key, value) members in file order, repeated keys kept,
    laid out again by ``params_lines``."""
    def respell(text):
        members = [(name, dict(value) if name == "layout" else value)
                   for name, value in json.loads(text, object_pairs_hook=list)]
        assert params_lines(members) == text
        damage(members)
        return params_lines(members)
    return respell


def _indented(text):
    return json.dumps(json.loads(text), indent=2)


def _move_last_member_first(members):
    members.insert(0, members.pop())


def _repeat_first_pair(members):
    pairs = dict(members)["pair_tables"]
    pairs.insert(0, pairs[0])


def _swap_first_pois(members):
    pois = dict(members)["poi_tables"]
    pois[0], pois[1] = pois[1], pois[0]


@pytest.mark.parametrize("respell", [_indented, _respelled(_move_last_member_first),
                                     _respelled(_repeat_first_pair),
                                     _respelled(_swap_first_pois)],
                         ids=["indented", "member-moved", "repeated-pair-key",
                              "unsorted-poi-key"])
def test_cli_recommend_refuses_params_text_the_writer_does_not_write(workspace, trained_dir,
                                                                     tmp_path, capsys, respell):
    """The reader takes only the writer's text: the same JSON spelled any
    other way exits 3, naming the line and the text it expected."""
    _, config = workspace
    text = (trained_dir / "mati_params.json").read_text(encoding="utf-8")
    bad_text = respell(text)
    assert bad_text != text and json.loads(bad_text) == json.loads(text)
    with pytest.raises(DataError, match="unreadable model parameters: expecting .* at line"):
        cli.params_from_json(io.StringIO(bad_text))
    bad = tmp_path / "bad.json"
    bad.write_text(bad_text, encoding="utf-8")
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(bad), "--user", "a0_0", "--n", "3"])
    assert code == 3
    assert "unreadable model parameters: expecting" in capsys.readouterr().err


def _crlf(text):
    return text.replace("\n", "\r\n")


def _blank_line_in_pairs(text):
    return text.replace('"pair_tables": {\n', '"pair_tables": {\n\n', 1)


def _split_first_poi_entry(text):
    head, _, rest = text.partition('"poi_tables": {\n')
    return head + '"poi_tables": {\n' + rest.replace('": [[', '":\n[[', 1)


@pytest.mark.parametrize("damage", [_crlf, _blank_line_in_pairs, _split_first_poi_entry],
                         ids=["crlf", "blank-line-in-pairs", "poi-entry-split"])
def test_cli_recommend_refuses_params_lines_the_writer_does_not_write(workspace, trained_dir,
                                                                      tmp_path, capsys, damage):
    """``recommend`` reads the file a line at a time without translating line
    ends: CRLF line ends, a blank line inside an object and an entry split
    over two lines exit 3, naming the line, although ``json.loads`` reads
    each as the same content."""
    _, config = workspace
    text = (trained_dir / "mati_params.json").read_text(encoding="utf-8")
    bad_text = damage(text)
    assert bad_text != text and json.loads(bad_text) == json.loads(text)
    bad = tmp_path / "bad.json"
    bad.write_bytes(bad_text.encode("utf-8"))
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(bad), "--user", "a0_0", "--n", "3"])
    assert code == 3
    err = capsys.readouterr().err
    first = next(i for i, (x, y) in enumerate(zip(text, bad_text)) if x != y)
    line = bad_text[:first].count("\n") + 1
    assert "unreadable model parameters" in err and f"at line {line}\n" in err


def test_cli_recommend_negative_params_entry_exits_4_naming_the_pair(workspace, trained_dir,
                                                                     tmp_path, capsys):
    _, config = workspace
    params = json.loads((trained_dir / "mati_params.json").read_text())
    key = sorted(params["pair_tables"])[3]
    row = params["pair_tables"][key][1][2]
    row[0], row[1] = -0.25, row[1] + row[0] + 0.25
    bad = tmp_path / "bad.json"
    bad.write_text(params_lines(params.items()), encoding="utf-8")
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(bad), "--user", "a0_0", "--n", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "negative" in err and repr(tuple(key.split("\t"))) in err


@pytest.mark.parametrize("text", [
    "a" * (cli.WRITE_SLICE - 1) + "\u00e9\u4e2d\U0001f600" + "b\n" * 10,
    TextPieces(["a" * (cli.WRITE_SLICE - 1), "\u00e9\u4e2d", "\U0001f600", "b\n" * 10]),
    "",
    TextPieces([]),
], ids=["multi-byte-across-slices", "multi-byte-across-groups", "empty", "no-pieces"])
def test_write_matches_write_text(tmp_path, text):
    """Writing a slice, or a group of pieces, at a time gives
    ``Path.write_text``'s bytes, also with a multi-byte character on each
    side of a slice or group boundary."""
    written = cli._write(tmp_path / "sliced", "out.txt", text)
    whole = tmp_path / "whole.txt"
    whole.write_text(str(text), encoding="utf-8")
    assert written.read_bytes() == whole.read_bytes()


def _run_python(script: str) -> str:
    """Stdout of ``script`` run by a fresh interpreter that imports this
    checkout's ``matirec``; a failing script fails the test."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_cli_ingest_loads_no_model_layer(tmp_path, monkeypatch):
    """``ingest`` loads only the package root, ``cli``, ``config``, ``errors``
    and ``ingest`` of the package, and not ``numpy.ma``; ``config`` alone
    loads no numpy at all."""
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text("u1\t100\t1.5\t0.1\tp1\nu2\t200\t-0.0\t0.1\tp2\n", encoding="utf-8")
    script = ("import sys\n"
              "from matirec.cli import main\n"
              f"assert main(['ingest', '--out', {str(tmp_path / 'out')!r}]) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'matirec'))\n"
              "print('numpy.ma' in sys.modules)\n")
    monkeypatch.setenv("MATI_DATA_CHECKINS", str(checkins))
    lines = _run_python(script).splitlines()
    assert lines[-2:] == [repr(["matirec", "matirec.cli", "matirec.config", "matirec.errors",
                                "matirec.ingest"]), "False"]
    assert (tmp_path / "out" / "checkins.tsv").read_text(encoding="utf-8").splitlines()[1:] == [
        "u1\t100\t1.5\t0.1\tp1", "u2\t200\t-0.0\t0.1\tp2"]
    script = "import sys\nimport matirec.config\nprint('numpy' in sys.modules)\n"
    assert _run_python(script).splitlines() == ["False"]


def test_cli_commands_leave_numpy_ma_unloaded(workspace, tmp_path):
    """The five commands a user runs in turn, in one process, never import
    ``numpy.ma`` (a plain ``np.unique`` or ``np.isin`` would)."""
    _, config = workspace
    out = tmp_path / "out"
    commands = [
        ["ingest", "--out", str(out)],
        ["slabs", "--out", str(out)],
        ["train", "--slabs", str(out / "slab_index.json"), "--out", str(out)],
        ["recommend", "--slabs", str(out / "slab_index.json"),
         "--params", str(out / "mati_params.json"), "--user", "a0_0", "--n", "5"],
        ["evaluate", "--out", str(tmp_path / "eval")],
    ]
    script = ("import sys\n"
              "from matirec.cli import main\n"
              f"for argv in {commands!r}:\n"
              f"    assert main(['--config', {str(config)!r}, *argv]) == 0, argv\n"
              "print('numpy.ma loaded:', 'numpy.ma' in sys.modules)\n")
    assert _run_python(script).splitlines()[-1] == "numpy.ma loaded: False"


def _csv_rows(path: Path) -> list[dict]:
    """The rows of a CSV output after its fingerprint line; a row with more
    or fewer fields than the header fails."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("# fingerprint=")
    rows = list(csv.DictReader(lines[1:]))
    for row in rows:
        assert None not in row and None not in row.values(), row
    return rows


def test_cli_csv_outputs_keep_ids_with_commas_and_quotes(tmp_path):
    """A user id and a POI id holding ``,`` and ``"`` read back whole from
    ``recommendations.csv``, ``eval_users.csv`` and ``decisions.csv``."""
    log = planted_corpus(n_users=60, seed=12)
    user = log.checkins[0].user_id
    poi = sorted(set(log.columns.pois) - distinct_pois(log, user))[0]
    odd_user, odd_poi = f'{user},"u"', f'{poi},"p"'
    renamed = CheckInLog.from_checkins(
        [replace(c, user_id=odd_user if c.user_id == user else c.user_id,
                 poi_id=odd_poi if c.poi_id == poi else c.poi_id) for c in log.checkins])
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text(serialize_log(renamed), encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\nseed = 42\n[data]\ncheckins = {checkins}\n"
                      "[sampling]\nm_min = 10\nn_percent = 25\n"
                      "[hybrid]\npsi_low = 0.02\npsi_high = 0.98\n"
                      "[eval]\ntest_fraction = 1.0\nns = 5\nmodels = usg,hybrid\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    n_pois = len(renamed.columns.pois)
    for argv in (["slabs", "--out", str(out)],
                 ["train", "--slabs", str(out / "slab_index.json"), "--out", str(out)],
                 ["recommend", "--slabs", str(out / "slab_index.json"),
                  "--params", str(out / "mati_params.json"), "--user", odd_user,
                  "--n", str(n_pois), "--model", "usg", "--out", str(out)],
                 ["evaluate", "--out", str(out)]):
        assert main(["--config", str(config), *argv]) == 0, argv

    recommended = _csv_rows(out / "recommendations.csv")
    assert {row["user_id"] for row in recommended} == {odd_user}
    assert odd_poi in [row["poi_id"] for row in recommended]
    assert set(renamed.columns.pois) >= {row["poi_id"] for row in recommended}
    for name in ("eval_users.csv", "decisions.csv"):
        users = {row["user_id"] for row in _csv_rows(out / name)}
        assert odd_user in users and users <= set(renamed.columns.users), name
