import hashlib
import json
import math

import pytest

from corpus import planted_corpus
from oracles import canonical_rows

from matirec.cli import main
from matirec.config import fingerprint, load_config, serialize_config
from matirec.errors import ConfigError
from matirec.ingest import serialize_log, serialize_social


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


@pytest.mark.parametrize("damage", [_damage_missing_pr_nu, _damage_truncated_poi_row,
                                    _damage_non_numeric_entry, _damage_layout_mismatch,
                                    _damage_pr_nu_keys, _damage_nan_pr_nu],
                         ids=["missing-key", "ragged-table", "non-numeric", "wrong-shape",
                              "pr-nu-keys", "nan-pr-nu"])
def test_cli_recommend_malformed_params_exits_3(workspace, trained_dir, tmp_path, capsys,
                                                damage):
    _, config = workspace
    params = json.loads((trained_dir / "mati_params.json").read_text())
    damage(params)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params), encoding="utf-8")
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(bad), "--user", "a0_0", "--n", "3"])
    assert code == 3
    assert "model parameters" in capsys.readouterr().err


def test_cli_recommend_negative_params_entry_exits_4_naming_the_pair(workspace, trained_dir,
                                                                     tmp_path, capsys):
    _, config = workspace
    params = json.loads((trained_dir / "mati_params.json").read_text())
    key = sorted(params["pair_tables"])[3]
    row = params["pair_tables"][key][1][2]
    row[0], row[1] = -0.25, row[1] + row[0] + 0.25
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(params), encoding="utf-8")
    code = main(["--config", str(config), "recommend",
                 "--slabs", str(trained_dir / "slab_index.json"),
                 "--params", str(bad), "--user", "a0_0", "--n", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "negative" in err and repr(tuple(key.split("\t"))) in err
