import numpy as np
import pytest
from hypothesis import given, strategies as st

from corpus import planted_corpus, stamp
from oracles import (absolute_poi_act, absolute_user_act, poi_act, reference_m_avg,
                     user_poi_probs)

from matirec.baselines import rank_top_n
from matirec.config import UnivariateConfig, load_config
from matirec.errors import ConfigError, DataError
from matirec.ingest import CheckIn, CheckInLog
from matirec.localtime import is_weekend
from matirec.pipeline import UsgComponents, UsgRecommender, UsgtRecommender
from matirec.univariate import act_histogram, effective_user_act, m_avg_recommend, poi_acts

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
    profile = effective_user_act("u", log, cfg, np.array([1.0, 1.0]))
    d, _ = user_poi_probs("u", "p", log)
    assert d == 0.75
    assert profile.pr_day[0] == pytest.approx(0.75 - 0.5, abs=0.0)
    assert profile.pr_day[0] == 0.25


def test_effective_act_forced_weekday_sign():
    log = _visits([("u", "p1", False), ("u", "p2", False)])
    profile = effective_user_act("u", log, UnivariateConfig(), np.array([0.9, 0.4]))
    assert profile.orientation == 1
    assert profile.avg_end == pytest.approx(-(profile.c_hat[0] + profile.c_hat[1]) * 0.5 / 2)


def test_effective_act_matches_hand_computation():
    """Three POIs with hand-set influence scores, evaluated step by step."""
    log = _visits([
        ("u", "a", False), ("u", "a", False),                      # p^d = 1.0
        ("u", "b", False), ("u", "b", True),                       # p^d = 0.5
        ("u", "c", True), ("u", "c", True), ("u", "c", True),      # p^d = 0.0
    ])
    c_star = np.array([0.9, 0.5, 0.1])  # a, b, c
    cfg = UnivariateConfig(lam=0.5, xi=0.1)
    profile = effective_user_act("u", log, cfg, c_star)
    # Feature scaling: a -> 1.0, b -> 0.5, c -> 0.0.
    assert profile.c_hat.tolist() == [1.0, 0.5, 0.0]
    pr_day = [1.0 * 0.5, 0.5 * 0.0, 0.0 * -0.5]
    pr_end = [1.0 * -0.5, 0.5 * 0.0, 0.0 * 0.5]
    assert profile.pr_day.tolist() == pr_day
    assert profile.pr_end.tolist() == pr_end
    avg_day = sum(pr_day) / 3
    avg_end = sum(pr_end) / 3
    assert profile.avg_day == pytest.approx(avg_day)
    assert profile.avg_end == pytest.approx(avg_end)
    assert profile.act == pytest.approx(abs(avg_day - avg_end))
    assert profile.orientation == 1


def test_effective_act_degenerate_scaling_falls_back():
    log = _visits([("u", "a", False), ("u", "b", True)])
    profile = effective_user_act("u", log, UnivariateConfig(), np.array([0.7, 0.7]))
    assert profile.c_hat.tolist() == [1.0, 1.0]


def test_effective_act_needs_two_pois():
    log = _visits([("u", "a", False)])
    with pytest.raises(DataError):
        effective_user_act("u", log, UnivariateConfig(), np.array([1.0]))


def _profile(avg_day, avg_end, act=None):
    return type("P", (), {"avg_day": avg_day, "avg_end": avg_end,
                          "act": abs(avg_day - avg_end) if act is None else act,
                          "orientation": (avg_day > avg_end) - (avg_day < avg_end)})()


def test_m_avg_quota_example():
    """avg_day=0.3, lam=0.5, xi=0.1, N=10 -> quotas 8 / 1 / 1 after rounding."""
    cfg = UnivariateConfig(lam=0.5, xi=0.1)
    profile = _profile(0.3, -0.35)
    acts = np.array([0.8] * 12 + [-0.8] * 5 + [0.0] * 3)
    chosen = acts[m_avg_recommend(acts, profile, cfg, 10)]
    assert len(chosen) == 10
    assert (chosen > 0).sum() == 8
    assert (chosen < 0).sum() == 1
    assert (chosen == 0).sum() == 1


def test_m_avg_backfills_missing_neutral():
    cfg = UnivariateConfig(lam=0.5, xi=0.2)
    result = m_avg_recommend(np.full(10, 0.5), _profile(0.2, -0.3), cfg, 5)
    assert result.tolist() == [0, 1, 2, 3, 4]


def test_m_avg_all_weekday_quota_covers_list():
    cfg = UnivariateConfig(lam=0.5, xi=0.0)
    result = m_avg_recommend(np.full(8, 0.9), _profile(0.5, -0.5), cfg, 5)
    assert result.tolist() == [0, 1, 2, 3, 4]


def test_m_avg_short_pool_flagged():
    """A pool shorter than n gives a list shorter than n, the whole pool."""
    cfg = UnivariateConfig()
    result = m_avg_recommend(np.array([0.1]), _profile(0.1, -0.1), cfg, 5)
    assert result.tolist() == [0]


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.sampled_from([0.0, 0.1, 0.3]), st.integers(1, 25))
def test_m_avg_bucket_sizes_sum_to_n(avg_day, avg_end, xi, n):
    cfg = UnivariateConfig(lam=0.5, xi=xi)
    acts = np.array([-0.5, 0.0, 0.5] * n)
    result = m_avg_recommend(acts, _profile(avg_day, avg_end), cfg, n)
    assert len(result) == n
    assert len(set(result.tolist())) == n


_LEANS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-0.5, -0.2, 0.0, 0.2, 0.5]))


@given(avg_day=_LEANS, avg_end=_LEANS, tied=st.booleans(),
       theta=st.sampled_from([0.0, 0.25, -0.5]), xi=st.sampled_from([0.0, 0.1, 0.3]),
       n=st.integers(1, 25), data=st.data())
def test_m_avg_positions_pick_the_reference_pois(avg_day, avg_end, tied, theta, xi, n, data):
    """The int path's positions name the POIs the string-keyed reference picks:
    leans equal or apart, quotas clamped to zero, acts tied at theta, and pools
    from empty to 3n, shorter than n included."""
    cfg = UnivariateConfig(lam=0.5, theta=theta, xi=xi)
    profile = _profile(avg_day, avg_day if tied else avg_end)
    size = data.draw(st.integers(0, 3 * n), label="pool size")
    acts = data.draw(st.lists(st.one_of(st.just(theta), st.floats(-1.0, 1.0)),
                              min_size=size, max_size=size), label="acts")
    pool = [f"p{i:03d}" for i in range(size)]
    got = m_avg_recommend(np.array(acts, dtype=float), profile, cfg, n)
    assert [pool[i] for i in got.tolist()] == reference_m_avg(pool, dict(zip(pool, acts)),
                                                              profile, cfg, n)


def test_usgt_router_paths():
    """An effective act at t re-composes the USG pool; just below t keeps the
    USG prefix."""
    log = planted_corpus(n_users=40, seed=5)
    cfg = load_config()
    components = UsgComponents(log, cfg)
    usgt = UsgtRecommender(components, cfg)
    t, n = cfg.univariate.t, 5
    user = components.matrix.users[0]  # cohort "a": weekday POIs lead the pool
    prefix = UsgRecommender(components).recommend(user, n)

    usgt._profiles[user] = _profile(-0.3, 0.3, act=t)
    candidates = components.candidates(user)
    top, _ = rank_top_n(components.usg_scores(user), cfg.univariate.k * n)
    pool = components.matrix.ids(candidates[top])
    acts = dict(zip(pool, usgt.poi_act[candidates[top]].tolist()))
    recomposed = usgt.recommend(user, n)
    assert recomposed == reference_m_avg(pool, acts, usgt._profiles[user], cfg.univariate, n)
    assert recomposed != prefix

    usgt._profiles[user] = _profile(-0.3, 0.3, act=np.nextafter(t, 0.0))
    assert usgt.recommend(user, n) == prefix


def test_poi_acts_matches_single(tiny_log):
    acts = poi_acts(tiny_log)
    for i, p in enumerate(tiny_log.columns.pois):
        assert acts[i] == poi_act(p, tiny_log).act


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
