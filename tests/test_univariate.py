import pytest
from hypothesis import given, strategies as st

from corpus import stamp
from oracles import absolute_poi_act, absolute_user_act, poi_act

from matirec.errors import ConfigError, DataError
from matirec.ingest import CheckIn, CheckInLog
from matirec.localtime import is_weekend
from matirec.univariate import (UnivariateConfig, act_histogram, all_poi_acts, effective_user_act,
                                m_avg_recommend, user_poi_probs, usgt_recommend)

SAT_NOON = stamp(0, 5, 12)
MON_NOON = stamp(0, 0, 12)
FRI_LATE = stamp(0, 4, 23, 59)


def test_is_weekend():
    assert is_weekend(SAT_NOON)
    assert not is_weekend(MON_NOON)
    assert not is_weekend(FRI_LATE)


def _visits(spec):
    """spec: list of (user, poi, weekend?: bool); one check-in each."""
    out = []
    for i, (u, p, weekend) in enumerate(spec):
        out.append(CheckIn(u, p, (SAT_NOON if weekend else MON_NOON) + i, 0.0, 0.0))
    return CheckInLog.from_checkins(out)


def test_poi_act_three_to_one():
    log = _visits([("a", "p", False), ("b", "p", False), ("c", "p", False), ("d", "p", True)])
    assert poi_act("p", log).act == pytest.approx(0.5)


def test_poi_act_all_weekend():
    log = _visits([("a", "p", True), ("b", "p", True)])
    assert poi_act("p", log).act == -1.0


def test_poi_act_neutral():
    log = _visits([("a", "p", True), ("b", "p", False)])
    assert poi_act("p", log).act == 0.0


def test_poi_act_unvisited_errors():
    with pytest.raises(DataError):
        poi_act("ghost", _visits([("a", "p", True)]))


def test_user_poi_probs():
    log = _visits([("u", "p", False), ("u", "p", False), ("u", "p", True), ("u", "p", True)])
    assert user_poi_probs("u", "p", log) == (0.5, 0.5)
    log2 = _visits([("u", "p", False), ("u", "p", False)])
    assert user_poi_probs("u", "p", log2) == (1.0, 0.0)
    log3 = _visits([("u", "p", False), ("u", "p", True), ("u", "p", True)])
    d, e = user_poi_probs("u", "p", log3)
    assert d == pytest.approx(1 / 3) and e == pytest.approx(2 / 3)
    assert d + e == pytest.approx(1.0)


def test_user_poi_probs_unvisited_errors():
    with pytest.raises(DataError):
        user_poi_probs("u", "q", _visits([("u", "p", False)]))


def test_absolute_poi_act_extremes():
    fully = _visits([(f"u{i}", "p", False) for i in range(5)])
    assert absolute_poi_act("p", fully, min_users=5) == pytest.approx(1.0)
    balanced = _visits([(f"u{i}", "p", w) for i in range(5) for w in (False, True)])
    assert absolute_poi_act("p", balanced, min_users=5) == pytest.approx(0.0)


def test_absolute_poi_act_two_visitor_mean():
    spec = [("a", "p", False),                     # |1 - 0| = 1
            ("b", "p", False), ("b", "p", True)]   # |0.5 - 0.5| = 0
    assert absolute_poi_act("p", _visits(spec), min_users=2) == pytest.approx(0.5)


def test_absolute_poi_act_below_floor():
    assert absolute_poi_act("p", _visits([("a", "p", False)]), min_users=5) is None


def test_absolute_user_act():
    spec = [("u", f"p{i}", False) for i in range(8)]
    assert absolute_user_act("u", _visits(spec), min_pois=8) == pytest.approx(1.0)
    spec = [("u", f"p{i}", w) for i in range(8) for w in (False, True)]
    assert absolute_user_act("u", _visits(spec), min_pois=8) == pytest.approx(0.0)
    assert absolute_user_act("u", _visits([("u", "p", False)]), min_pois=8) is None


def test_margin_shift_worked_example():
    """3 weekday visits of 4 with lam=0.5: shifted weekday share is exactly 0.25."""
    log = _visits([("u", "p", False)] * 3 + [("u", "p", True)] + [("u", "q", False)])
    cfg = UnivariateConfig()
    profile = effective_user_act("u", log, cfg, {"p": 1.0, "q": 1.0})
    d, _ = user_poi_probs("u", "p", log)
    assert d == 0.75
    assert profile.pr_day["p"] == pytest.approx(0.75 - 0.5, abs=0.0)
    assert profile.pr_day["p"] == 0.25


def test_effective_act_forced_weekday_sign():
    log = _visits([("u", "p1", False), ("u", "p2", False)])
    profile = effective_user_act("u", log, UnivariateConfig(), {"p1": 0.9, "p2": 0.4})
    assert profile.orientation == 1
    assert profile.avg_end == pytest.approx(-(profile.c_hat["p1"] + profile.c_hat["p2"]) * 0.5 / 2)


def test_effective_act_matches_hand_computation():
    """Three POIs with hand-set influence scores, evaluated step by step."""
    log = _visits([
        ("u", "a", False), ("u", "a", False),                      # p^d = 1.0
        ("u", "b", False), ("u", "b", True),                       # p^d = 0.5
        ("u", "c", True), ("u", "c", True), ("u", "c", True),      # p^d = 0.0
    ])
    c_star = {"a": 0.9, "b": 0.5, "c": 0.1}
    cfg = UnivariateConfig(lam=0.5, xi=0.1)
    profile = effective_user_act("u", log, cfg, c_star)
    # Feature scaling: a -> 1.0, b -> 0.5, c -> 0.0.
    assert profile.c_hat == {"a": 1.0, "b": 0.5, "c": 0.0}
    pr_day = {"a": 1.0 * 0.5, "b": 0.5 * 0.0, "c": 0.0 * -0.5}
    pr_end = {"a": 1.0 * -0.5, "b": 0.5 * 0.0, "c": 0.0 * 0.5}
    avg_day = sum(pr_day.values()) / 3
    avg_end = sum(pr_end.values()) / 3
    assert profile.avg_day == pytest.approx(avg_day)
    assert profile.avg_end == pytest.approx(avg_end)
    assert profile.act == pytest.approx(abs(avg_day - avg_end))
    assert profile.orientation == 1


def test_effective_act_degenerate_scaling_falls_back():
    log = _visits([("u", "a", False), ("u", "b", True)])
    profile = effective_user_act("u", log, UnivariateConfig(), {"a": 0.7, "b": 0.7})
    assert profile.c_hat == {"a": 1.0, "b": 1.0}


def test_effective_act_needs_two_pois():
    log = _visits([("u", "a", False)])
    with pytest.raises(DataError):
        effective_user_act("u", log, UnivariateConfig(), {"a": 1.0})


def _profile(avg_day, avg_end):
    return type("P", (), {"avg_day": avg_day, "avg_end": avg_end,
                          "act": abs(avg_day - avg_end),
                          "orientation": (avg_day > avg_end) - (avg_day < avg_end)})()


def test_m_avg_quota_example():
    """avg_day=0.3, lam=0.5, xi=0.1, N=10 -> quotas 8 / 1 / 1 after rounding."""
    cfg = UnivariateConfig(lam=0.5, xi=0.1)
    profile = _profile(0.3, -0.35)
    rho = [f"d{i}" for i in range(12)] + [f"e{i}" for i in range(5)] + [f"n{i}" for i in range(3)]
    delta = {}
    delta.update({f"d{i}": 0.8 for i in range(12)})
    delta.update({f"e{i}": -0.8 for i in range(5)})
    delta.update({f"n{i}": 0.0 for i in range(3)})
    result, short = m_avg_recommend(rho, delta, profile, cfg, 10)
    assert not short
    assert len(result) == 10
    assert sum(1 for p in result if delta[p] > 0) == 8
    assert sum(1 for p in result if delta[p] < 0) == 1
    assert sum(1 for p in result if delta[p] == 0) == 1


def test_m_avg_backfills_missing_neutral():
    cfg = UnivariateConfig(lam=0.5, xi=0.2)
    profile = _profile(0.2, -0.3)
    rho = [f"d{i}" for i in range(10)]
    delta = {p: 0.5 for p in rho}
    result, _ = m_avg_recommend(rho, delta, profile, cfg, 5)
    assert result == rho[:5]


def test_m_avg_all_weekday_quota_covers_list():
    cfg = UnivariateConfig(lam=0.5, xi=0.0)
    profile = _profile(0.5, -0.5)
    rho = [f"d{i}" for i in range(8)]
    delta = {p: 0.9 for p in rho}
    result, _ = m_avg_recommend(rho, delta, profile, cfg, 5)
    assert result == rho[:5]


def test_m_avg_short_pool_flagged():
    cfg = UnivariateConfig()
    result, short = m_avg_recommend(["a"], {"a": 0.1}, _profile(0.1, -0.1), cfg, 5)
    assert short and result == ["a"]


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.sampled_from([0.0, 0.1, 0.3]), st.integers(1, 25))
def test_m_avg_bucket_sizes_sum_to_n(avg_day, avg_end, xi, n):
    cfg = UnivariateConfig(lam=0.5, xi=xi) if xi else UnivariateConfig(lam=0.5, xi=0.0)
    profile = _profile(avg_day, avg_end)
    rho = [f"p{i:02d}" for i in range(3 * n)]
    delta = {p: [-0.5, 0.0, 0.5][i % 3] for i, p in enumerate(rho)}
    result, short = m_avg_recommend(rho, delta, profile, cfg, n)
    assert not short
    assert len(result) == n
    assert len(set(result)) == n


def test_usgt_router_paths():
    cfg = UnivariateConfig()
    pool = [f"p{i}" for i in range(10)]
    delta = {p: 0.3 for p in pool}
    items, path, _ = usgt_recommend(_profile(0.15, -0.05), cfg, pool, delta, 5)
    assert path == "temporal"
    items, path, _ = usgt_recommend(_profile(0.04, -0.01), cfg, pool, delta, 5)
    assert path == "non_temporal" and items == pool[:5]
    boundary = _profile(1 / 14, -1 / 14)  # act exactly 1/7
    assert boundary.act == pytest.approx(cfg.t)
    _, path, _ = usgt_recommend(boundary, cfg, pool, delta, 5)
    assert path == "temporal"


def test_all_poi_acts_matches_single(tiny_log):
    acts = all_poi_acts(tiny_log)
    for p in tiny_log.pois():
        single = poi_act(p, tiny_log)
        assert acts[p].weekday_visits == single.weekday_visits
        assert acts[p].weekend_visits == single.weekend_visits


def test_act_histogram_bins():
    rows = act_histogram([0.05, 0.15, 0.17, 0.95, 1.0])
    as_dict = {round(lo, 6): c for lo, hi, c in rows}
    assert as_dict[0.0] == 1
    assert as_dict[0.1] == 2
    assert as_dict[0.9] == 2  # 1.0 clamps into the last bin


def test_config_bounds():
    with pytest.raises(ConfigError):
        UnivariateConfig(t=0.0)
    with pytest.raises(ConfigError):
        UnivariateConfig(lam=1.0)
    with pytest.raises(ConfigError):
        UnivariateConfig(xi=1.0)
    with pytest.raises(ConfigError):
        UnivariateConfig(k=0)
