import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from corpus import (checkin_users, distinct_pois, planted_corpus, three_factor_index,
                    three_factor_log)
from oracles import as_dicts, reference_params_json

from matirec import cli, mati
from matirec.config import MODELS, HybridConfig, load_config
from matirec.errors import ConfigError
from matirec.evaluation import split_exclude
from matirec.ingest import CheckInLog
from matirec.mati import (ChainStack, chain_from_joint, joint_from_chain, pair_keys, pair_of,
                          params_from_json, params_to_json, run_em)
from matirec.pipeline import (MatiRecommender, UsgComponents, build_slab_index, train_models,
                              training_pr_nu)
from matirec.univariate import act_observations, effective_user_act


@pytest.fixture(scope="module")
def trained():
    log = planted_corpus(n_users=60, seed=21)
    cfg = load_config()
    cfg.sampling.m_min = 10
    cfg.sampling.n_percent = 25
    cfg.usg.alpha, cfg.usg.beta = 0.2, 0.3
    cfg.hybrid = HybridConfig(0.02, 0.98)
    return log, cfg, train_models(log, cfg)


ALL_MODELS = ("ubcf", "usg", "usgt", "ubcft", "mati", "hybrid")


def test_every_model_recommends_full_lists(trained):
    log, cfg, models = trained
    users = checkin_users(log)[:5]
    for name in ALL_MODELS:
        model = models.get(name)
        for u in users:
            items = model.recommend(u, 5)
            assert len(items) == 5, (name, u)
            assert len(set(items)) == 5
            assert not set(items) & distinct_pois(log, u)


def test_trained_models_are_the_config_models(trained):
    """``eval.models`` and ``recommend --model`` are checked against
    ``config.MODELS`` before training, so it must name what is trained."""
    _, _, models = trained
    assert tuple(models.recommenders) == MODELS


def test_unknown_model_name(trained):
    _, _, models = trained
    with pytest.raises(ConfigError):
        models.get("svd")


def test_training_pr_nu_is_one_per_observed_pair(trained):
    """EM's update never reads Pr_nu, so training weighs every pair alike."""
    log, _, models = trained
    pr_nu = training_pr_nu(log)
    pairs = [pair_of(key) for key in pair_keys(log)]
    assert pr_nu.tolist() == [1.0] * len(pairs)
    assert models.params.pr_nu.tolist() == pr_nu.tolist()
    observed = {(c.user_id, c.poi_id) for c in log.checkins}
    assert set(pairs) == observed


def test_usgt_ubcft_share_orientation_when_influence_uniform(trained):
    """With every influence weight equal, the two variants see the same act."""
    log, cfg, models = trained
    usgt, ubcft = models.get("usgt"), models.get("ubcft")
    users = checkin_users(log)[:5]
    for u in users:
        uniform = np.ones(len(distinct_pois(log, u)))
        a = effective_user_act(u, log, cfg.univariate, uniform)
        b = ubcft._profile(u)
        assert b is not None
        assert a.orientation == b.orientation
        assert a.act == pytest.approx(b.act)


def test_usgt_temporal_path_recomposes(trained):
    """A strongly weekday-oriented cohort user takes the temporal path."""
    log, cfg, models = trained
    usgt = models.get("usgt")
    routed_temporal = 0
    for u in checkin_users(log)[:10]:
        profile = usgt._profile(u)
        if profile is not None and profile.act >= cfg.univariate.t:
            routed_temporal += 1
    assert routed_temporal > 0


def test_act_observations_batch(trained):
    log, _, _ = trained
    user_acts, poi_acts = act_observations(log, 0, min_users=2, min_pois=2)
    assert user_acts and poi_acts
    assert all(0 <= v <= 1 for v in user_acts + poi_acts)


def test_em_report_monotone_on_planted(trained):
    _, _, models = trained
    trace = models.em_report.log_likelihood
    assert all(b >= a - 1e-9 * max(1, abs(a)) for a, b in zip(trace, trace[1:]))
    assert models.em_report.converged


def test_incomplete_coverage_triggers_completion(trained):
    """Sampling exhausts the corpus without covering every slot pair, so the
    matrices must carry imputed cells rather than gaps."""
    _, _, models = trained
    imputed_any = False
    for matrix in models.slab_artifacts.matrices.values():
        assert matrix.is_complete()
        imputed_any = imputed_any or bool(matrix.completed_mask.any())
    assert imputed_any


def test_per_factor_hac_threshold_override():
    cfg = load_config()
    cfg.factors = type(cfg.factors)(names="hour,day", hac_threshold=0.6,
                                    hac_threshold_day=0.2)
    assert cfg.factors.threshold_for("hour") == 0.6
    assert cfg.factors.threshold_for("day") == 0.2


def test_binary_vector_toggle_builds():
    log = planted_corpus(n_users=40, seed=9)
    cfg = load_config()
    cfg.sampling.m_min = 5
    cfg.sampling.n_percent = 50
    cfg.factors = type(cfg.factors)(names="hour,day", hac_threshold=0.6,
                                    binary_vectors=True)
    artifacts = build_slab_index(log, cfg)
    assert artifacts.index.slab_counts().keys() == {"hour", "day"}
    assert all(n >= 1 for n in artifacts.index.grid_shape())


def test_no_observed_slot_pair_keeps_one_slab_per_slot(tiny_log, caplog):
    """No slot pair reaches m_min, so nothing can be completed or merged."""
    artifacts = build_slab_index(tiny_log, load_config())
    assert artifacts.index.slab_counts() == {"hour": 24, "day": 7}
    assert "one slab per slot" in caplog.text


@pytest.fixture(scope="module")
def planted_split():
    """Planted-300 evaluation split, trained with the default hybrid range."""
    log = planted_corpus(n_users=300, seed=2024)
    cfg = load_config()
    cfg.sampling.m_min = 20
    cfg.sampling.n_percent = 10
    cfg.usg.alpha, cfg.usg.beta = 0.2, 0.3
    split = split_exclude(log, 0.3, seed=11, test_fraction=0.2)
    return split, train_models(split.train_log, cfg)


def test_hybrid_route_independent_of_list_size(planted_split):
    split, models = planted_split
    hybrid = models.get("hybrid")
    assert hybrid.recommend("a14_7", 5) == hybrid.recommend("a14_7", 20)[:5]
    for u in split.test_users:
        hybrid.recommend(u, 20)
        hybrid.score(u, models.components.candidates_for(u))
    routed = [d.user_id for d in hybrid.decisions]
    assert sorted(routed) == split.test_users


NON_NESTED = pytest.mark.xfail(
    strict=True, reason="re-thresholds a k*n USG pool, so top-n need not prefix top-20")


@pytest.mark.parametrize("name", ["ubcf", "usg", "mati", "hybrid",
                                  pytest.param("usgt", marks=NON_NESTED),
                                  pytest.param("ubcft", marks=NON_NESTED)])
def test_top_n_lists_are_nested(planted_split, name):
    split, models = planted_split
    model = models.get(name)
    broken = []
    for u in split.test_users:
        full = model.recommend(u, 20)
        broken += [(u, n) for n in (1, 5, 10) if model.recommend(u, n) != full[:n]]
    assert not broken


def test_depth_means_equal_per_poi_joint_means(planted_split):
    _, models = planted_split
    mati = models.get("mati")
    chains = as_dicts(models.params).poi_tables
    want = [float(joint_from_chain(chains[p]).mean()) for p in models.components.matrix.pois]
    assert mati.depth_means.tolist() == want


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="depth reduces to pr_nu / n_cells, so the trained tables never "
                          "reach a ranking (the open depth fix in ROADMAP.md)")
def test_random_slab_tables_change_some_mati_list(planted_split):
    split, models = planted_split
    rng = np.random.default_rng(5)
    shape = models.params.layout.shape

    def random_chains(keys):
        joints = rng.random((len(keys), *shape))
        chains = [chain_from_joint(joint / joint.sum()) for joint in joints]
        return ChainStack.of(keys, [np.array(level) for level in zip(*chains)])

    pairs, pois = models.params.pair_tables, models.params.poi_tables
    params = replace(models.params, pair_tables=random_chains(pairs.keys),
                     poi_tables=random_chains(pois.keys),
                     global_table=[level[0] for level in random_chains(("global",)).levels])
    trained = models.get("mati")
    randomized = MatiRecommender(models.components, params, models.user_profiles,
                                 models.poi_profiles, trained.phi_t)
    changed = [u for u in split.test_users
               if randomized.recommend(u, 20) != trained.recommend(u, 20)]
    assert changed


@pytest.fixture(scope="module", params=["planted-300", "three-factor"])
def trained_params(request):
    """Trained parameters and the reference encoder's file of them:
    planted-300's from ``train_models``, and the three-level chains of the
    three-factor log from ``run_em``."""
    if request.param == "planted-300":
        params = request.getfixturevalue("planted_split")[1].params
    else:
        log = three_factor_log()
        params, _ = run_em(log, three_factor_index(), np.ones(len(log.columns.pairs)))
    return params, reference_params_json(as_dicts(params), fingerprint=request.param)


@pytest.mark.parametrize("slice_size", [1, 7, None], ids=["1", "7", "more-than-pairs"])
def test_trained_params_file_matches_reference_encoder(trained_params, slice_size,
                                                       monkeypatch):
    """The writer builds EM's pair chains a slice at a time; at any slice
    size it writes the reference bytes, which read back to the same chains."""
    params, want = trained_params
    pairs = params.pair_tables
    monkeypatch.setattr(mati, "PARAMS_SLICE", slice_size or len(pairs) + 1)
    fingerprint = json.loads(want)["fingerprint"]
    text = str(params_to_json(params, fingerprint=fingerprint))
    assert text == want
    restored = params_from_json(io.StringIO(text))
    assert restored.pair_tables.keys == pairs.keys
    assert restored.pr_nu.tobytes() == params.pr_nu.tobytes()
    for stack in ("pair_tables", "poi_tables"):
        mine, orig = getattr(restored, stack), getattr(params, stack)
        assert ([a.tobytes() for a in mine.levels]
                == [b.tobytes() for b in orig.chains(0, len(orig))])


def test_rendered_params_are_the_reference_text_and_the_written_bytes(trained_params,
                                                                       tmp_path):
    """``params_to_json`` returns pieces: joined, they are the reference
    encoder's text, and their ``encode`` (which the benchmark's tracer
    counts) is the bytes ``cli._write`` writes of them."""
    params, want = trained_params
    pieces = params_to_json(params, fingerprint=json.loads(want)["fingerprint"])
    assert str(pieces) == want
    path = cli._write(tmp_path, "mati_params.json", pieces)
    assert path.read_bytes() == pieces.encode("utf-8") == want.encode("utf-8")


def test_rendering_and_writing_the_params_file_peaks_below_its_size(planted_split, tmp_path):
    """The rendered pieces share their row texts, and ``cli._write`` joins
    them a group at a time, so the whole text is never held; joined before
    it was written, the text took rendering and writing to about 1.24 times
    the file's size.  The bound is the reader's."""
    _, models = planted_split
    tracemalloc.start()
    try:
        path = cli._write(tmp_path, "mati_params.json",
                          params_to_json(models.params, fingerprint="planted-300"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.6 * size, f"peak {peak / size:.3f} of the file's size"


def test_reading_the_params_file_peaks_below_its_size(planted_split, tmp_path):
    """Read a line at a time, as ``recommend`` opens it, the read holds the
    stacks (about a third of the file), a line and one batch of chains'
    row texts; the whole text plus ``json.loads`` of it peaked at about
    twice the file's size."""
    _, models = planted_split
    path = tmp_path / "mati_params.json"
    path.write_text(str(params_to_json(models.params, fingerprint="planted-300")), encoding="utf-8")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8", newline="") as stream:
            params_from_json(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 0.6 * size, f"peak {peak / size:.3f} of the file's size"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="leave_one_out_c_star gives every held-out POI a geo score of 1, so "
                          "geography never moves c* (open item in ROADMAP.md)")
def test_leave_one_out_c_star_sees_geography():
    log = planted_corpus(n_users=40, seed=9)
    cfg = load_config()
    cfg.usg.alpha, cfg.usg.beta = 0.2, 0.3
    user = checkin_users(log)[0]
    far = sorted(distinct_pois(log, user))[0]  # POI int order: c* position 0
    moved = CheckInLog.from_checkins([replace(c, lat=c.lat + 30.0) if c.poi_id == far else c
                                      for c in log.checkins], log.social_edges)
    before = UsgComponents(log, cfg).leave_one_out_c_star(user)
    after = UsgComponents(moved, cfg).leave_one_out_c_star(user)
    assert after[0] != before[0]
