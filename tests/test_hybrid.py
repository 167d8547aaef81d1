import numpy as np
import pytest

import oracles as orc
from corpus import checkin_users, planted_corpus

from matirec.config import load_config
from matirec.errors import ConfigError, DataError
from matirec.hybrid import (PROBE_N, Decision, HybridConfig, avg_shared_activity, decide,
                            decisions_csv)
from matirec.ingest import CheckInLog
from matirec.pipeline import train_models

CELLS = "abcdefgh"


def _cells(*active_sets):
    """One row of per-cell check-in counts per set of active cells."""
    return np.array([[2 if c in active else 0 for c in CELLS] for active in active_sets])


def test_avg_all_shared():
    assert avg_shared_activity(_cells({"a", "b"})[0], _cells({"a", "b"}, {"a", "b"})) == 1.0


def test_avg_all_disjoint():
    assert avg_shared_activity(_cells({"a"})[0], _cells({"g"}, {"h"})) == 0.0


def test_avg_mean_of_values():
    up = _cells({"a", "b", "c", "d", "e"})[0]
    pois = _cells({"a"},                  # 1/5
                  {"h"},                  # 0, still counted
                  {"a", "b", "c"})        # 3/5
    assert avg_shared_activity(up, pois) == (0.2 + 0.0 + 0.6) / 3


def test_avg_empty_candidates_errors():
    with pytest.raises(DataError):
        avg_shared_activity(_cells({"a"})[0], _cells())


def test_decide_closed_interval():
    cfg = HybridConfig(0.4, 0.9)
    assert decide(0.5, cfg) == "temporal"
    assert decide(0.95, cfg) == "non_temporal"
    assert decide(0.4, cfg) == "temporal"
    assert decide(0.9, cfg) == "temporal"
    assert decide(0.39999, cfg) == "non_temporal"


def test_config_bounds():
    with pytest.raises(ConfigError):
        HybridConfig(0.9, 0.4)
    with pytest.raises(ConfigError):
        HybridConfig(-0.1, 0.5)


def test_presets():
    assert HybridConfig.preset("brightkite") == HybridConfig(0.4, 0.9)
    assert HybridConfig.preset("foursquare") == HybridConfig(0.4, 0.8)
    with pytest.raises(ConfigError):
        HybridConfig.preset("gowalla")


def test_decisions_csv():
    text = decisions_csv([Decision("u1", 0.5, "temporal")], "2026-01-01T00:00:00Z")
    lines = text.splitlines()
    assert lines[0] == "user_id,mean_psi,path,run_timestamp"
    assert lines[1].startswith("u1,0.5,temporal,")


@pytest.fixture(scope="module")
def small_trained():
    log = planted_corpus(n_users=80, seed=5)
    cfg = load_config()
    cfg.sampling.m_min = 10
    cfg.sampling.n_percent = 25
    cfg.usg.alpha, cfg.usg.beta = 0.2, 0.3
    cfg.hybrid = HybridConfig(0.02, 0.98)
    return log, cfg, train_models(log, cfg)


def test_hybrid_recommend_routes_and_logs(small_trained):
    log, cfg, models = small_trained
    hybrid = models.get("hybrid")
    user = checkin_users(log)[0]
    items = hybrid.recommend(user, 5)
    assert len(items) == 5
    assert hybrid.decisions[-1].user_id == user
    assert hybrid.decisions[-1].path in ("temporal", "non_temporal")


def test_hybrid_full_range_equals_mati(small_trained):
    log, cfg, models = small_trained
    from matirec.pipeline import HybridRecommender
    full = HybridRecommender(models.get("usg"), models.get("mati"), HybridConfig(0.0, 1.0))
    out_of_range = HybridRecommender(models.get("usg"), models.get("mati"),
                                     HybridConfig(1.0, 1.0))
    users = checkin_users(log)[:6]
    for u in users:
        assert full.recommend(u, 5) == models.get("mati").recommend(u, 5)
        assert full.decisions[-1].path == "temporal"
    for u in users:
        if out_of_range.recommend(u, 5):
            # mean psi below 1.0 for these sparse profiles -> non-temporal path
            assert out_of_range.decisions[-1].path == "non_temporal"
            assert out_of_range.recommend(u, 5) == models.get("usg").recommend(u, 5)


def test_hybrid_cold_user_routes_non_temporal(small_trained):
    """A user with one noise check-in shares almost no slabs with candidates."""
    log, cfg, models = small_trained
    from matirec.ingest import CheckIn
    from matirec.pipeline import train_models as retrain
    from corpus import stamp
    cold = CheckIn("cold_u", "pa0_0", stamp(0, 3, 3), 10.0, 20.0)
    bigger = CheckInLog.from_checkins(tuple(log.checkins) + (cold,), log.social_edges)
    cfg2 = load_config()
    cfg2.sampling.m_min = 10
    cfg2.sampling.n_percent = 25
    cfg2.hybrid = HybridConfig(0.3, 1.0)
    models2 = retrain(bigger, cfg2)
    hybrid = models2.get("hybrid")
    hybrid.recommend("cold_u", 5)
    decision = hybrid.decisions[-1]
    assert decision.path == "non_temporal"
    assert decision.mean_psi < 0.3


def test_hybrid_n_zero_errors(small_trained):
    _, _, models = small_trained
    with pytest.raises(ConfigError):
        models.get("hybrid").recommend("a0_0", 0)


def test_planted_user_temporal_path_differs_from_usg(small_trained):
    """At least one routed-temporal user gets a different top-1 than USG."""
    log, cfg, models = small_trained
    hybrid = models.get("hybrid")
    usg = models.get("usg")
    differs = 0
    for u in checkin_users(log)[:20]:
        h = hybrid.recommend(u, 5)
        if hybrid.decisions[-1].path == "temporal" and h and h[0] != usg.recommend(u, 5)[0]:
            differs += 1
    assert differs > 0


@pytest.fixture(scope="module")
def planted_300():
    """Planted corpus, 300 users, at the benchmark's planted settings."""
    log = planted_corpus(n_users=300, seed=11)
    cfg = load_config()
    cfg.sampling.m_min = 20
    cfg.sampling.n_percent = 10
    cfg.usg.alpha, cfg.usg.beta = 0.2, 0.3
    cfg.hybrid = HybridConfig(0.05, 0.95)
    return log, train_models(log, cfg)


def test_planted_psi_matches_string_set_oracle(planted_300):
    """Every MATI psi vector and every hybrid route's mean_psi equal the
    string-set Jaccard of the users' and POIs' slab ids, exactly."""
    log, models = planted_300
    user_slabs, poi_slabs = orc.slab_profiles(log, models.slab_artifacts.index)
    comp, mati, hybrid = models.components, models.get("mati"), models.get("hybrid")
    usg = models.get("usg")
    users = comp.matrix.users + ("nobody",)
    for user in users:
        mine = set(user_slabs.get(user, ()))
        want = [orc.jaccard(mine, set(poi_slabs[p])) for p in comp.candidates_for(user)]
        assert mati.psi(user, comp.candidates(user)).tolist() == want
        hybrid.recommend(user, 1)
    assert list(hybrid.routes) == list(users)
    for user, decision in hybrid.routes.items():
        mine = set(user_slabs.get(user, ()))
        probe = usg.recommend(user, PROBE_N)
        total = 0.0
        for p in probe:
            total += orc.jaccard(mine, set(poi_slabs[p]))
        assert decision.mean_psi == total / len(probe)
    assert hybrid.routes["nobody"].mean_psi == 0.0
