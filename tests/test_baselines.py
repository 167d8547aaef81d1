import logging
import math

import numpy as np
import pytest

from oracles import (friend_map, friend_weights, geo_log_score, geo_scores, social_from_weights,
                     social_score, top_neighbors, ubcf_from_neighbors, ubcf_score)

from matirec.baselines import (GeoModel, UserPoiMatrix, fit_geo_model, geo_log_scores,
                               haversine_km, max_normalize, rank_top_n, usg_score)
from matirec.config import UsgWeights, load_config
from matirec.errors import ConfigError, DataError
from matirec.ingest import CheckIn, CheckInLog
from matirec.pipeline import UsgComponents


def _log(visits, edges=()):
    """visits: list of (user, poi) or (user, poi, lat, lon)."""
    checkins = []
    for i, entry in enumerate(visits):
        u, p = entry[0], entry[1]
        lat, lon = (entry[2], entry[3]) if len(entry) > 2 else (0.0, 0.0)
        checkins.append(CheckIn(u, p, 1000 + i, lat, lon))
    return CheckInLog.from_checkins(checkins, edges)


def test_ubcf_identical_neighbor():
    log = _log([("u", "a"), ("v", "a"), ("v", "l")])
    matrix = UserPoiMatrix(log)
    assert ubcf_score("u", "l", matrix, k_neighbors=5) == pytest.approx(1.0)


def test_ubcf_no_neighbor_visited():
    log = _log([("u", "a"), ("v", "a"), ("w", "b"), ("w", "l")])
    matrix = UserPoiMatrix(log)
    assert ubcf_score("u", "l", matrix, k_neighbors=5) == 0.0


def test_ubcf_weighted_mix():
    # Neighbor weights 1.0 (visited l) and 0.5 (did not) -> 1.0/1.5.
    log = _log([("v1", "l"), ("v2", "x")])
    matrix = UserPoiMatrix(log)
    score = ubcf_from_neighbors([("v1", 1.0), ("v2", 0.5)], "l", matrix)
    assert score == pytest.approx(1.0 / 1.5)


def test_ubcf_neighbor_sims_are_cosine():
    log = _log([("u", "a"), ("u", "b"),
                ("v1", "a"), ("v1", "b"), ("v1", "l"),
                ("v2", "a"), ("v2", "c"), ("v2", "d"), ("v2", "e"),
                ("v2", "f"), ("v2", "g"), ("v2", "h"), ("v2", "i")])
    matrix = UserPoiMatrix(log)
    sims = dict(top_neighbors(matrix, "u", 5))
    assert sims["v1"] == pytest.approx(2 / math.sqrt(2 * 3))
    assert sims["v2"] == pytest.approx(1 / math.sqrt(2 * 8))


def test_ubcf_matches_brute_force_on_toy_matrix():
    users = ["u0", "u1", "u2", "u3"]
    pois = ["p0", "p1", "p2", "p3"]
    visited = {"u0": {"p0", "p1"}, "u1": {"p1", "p2"}, "u2": {"p0", "p1", "p3"},
               "u3": {"p2"}}
    log = _log([(u, p) for u in users for p in sorted(visited[u])])
    matrix = UserPoiMatrix(log)
    for target in pois:
        brute = {}
        for u in users:
            sims = {}
            for v in users:
                if v == u:
                    continue
                inter = len(visited[u] & visited[v])
                if inter:
                    sims[v] = inter / math.sqrt(len(visited[u]) * len(visited[v]))
            total = sum(sims.values())
            hit = sum(s for v, s in sims.items() if target in visited[v])
            brute[u] = hit / total if total else 0.0
        for u in users:
            assert ubcf_score(u, target, matrix, 10) == pytest.approx(brute[u])


def test_social_single_friend():
    # Mutual friendship only: token sets {u,f,a} vs {u,f,l} -> Jaccard 0.5;
    # the sole friend visited l, so the normalized score is 1.0.
    log = _log([("u", "a"), ("f", "l")], edges=[("u", "f")])
    matrix = UserPoiMatrix(log)
    friends = friend_map(log)
    weights = dict(friend_weights(matrix, friends, "u"))
    assert weights["f"] == pytest.approx(0.5)
    assert social_score("u", "l", matrix, friends) == pytest.approx(1.0)


def test_social_no_friend_visited():
    log = _log([("u", "a"), ("f", "b")], edges=[("u", "f")])
    matrix = UserPoiMatrix(log)
    assert social_score("u", "l", matrix, friend_map(log)) == 0.0


def test_social_friendless_user():
    log = _log([("u", "a")])
    matrix = UserPoiMatrix(log)
    assert social_score("u", "l", matrix, friend_map(log)) == 0.0


def test_social_two_friend_mix():
    weights = [("f1", 0.5), ("f2", 0.25)]
    log = _log([("f1", "l"), ("f2", "x")])
    matrix = UserPoiMatrix(log)
    assert social_from_weights(weights, "l", matrix) == pytest.approx(0.5 / 0.75)


def test_haversine_known_distance():
    # One degree of latitude is ~111.19 km on the mean sphere.
    assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.19, abs=0.1)


def test_fit_geo_two_point_exact():
    # Two users, each contributing one pairwise distance: 1 km and 4 km.
    log = _log([
        ("u1", "a", 0.0, 0.0), ("u1", "b", 1.0 / 111.194926, 0.0),
        ("u2", "c", 10.0, 10.0), ("u2", "d", 10.0 + 4.0 / 111.194926 * math.cos(0.0), 10.0),
    ])
    model = fit_geo_model(log, bin_km=0.5, d_min_km=0.1)
    # Bin centers 1.25 and 4.25 km (floor at k=2 and k=8), each mass 1/2.
    x1, x2 = math.log(1.25), math.log(4.25)
    assert model.b == pytest.approx(0.0, abs=1e-9)  # equal masses -> flat line
    assert model.log_a == pytest.approx(math.log(0.5), abs=1e-9)
    assert x1 != x2


def test_fit_geo_recovers_power_law():
    rng = np.random.default_rng(3)
    b_true = -1.5
    lo, hi = 0.5, 50.0
    # Inverse-CDF sampling of pdf ~ d^b on [lo, hi].
    exp = b_true + 1
    u = rng.uniform(size=4000)
    d = (lo ** exp + u * (hi ** exp - lo ** exp)) ** (1 / exp)
    visits = []
    for i, dist in enumerate(d):
        lat = (i % 170) * 0.5 - 42.0
        visits.append((f"u{i}", "a%d" % i, lat, 0.0))
        visits.append((f"u{i}", "b%d" % i, lat + dist / 111.194926, 0.0))
    model = fit_geo_model(_log(visits), bin_km=0.5, d_min_km=0.1)
    assert model.b == pytest.approx(b_true, abs=0.1)


def test_fit_geo_degenerate_single_bin():
    log = _log([("u", "a", 0.0, 0.0), ("u", "b", 0.0001, 0.0)])
    with pytest.raises(DataError, match="bins"):
        fit_geo_model(log)


def test_geo_fit_that_rewards_distance_falls_back_flat(caplog):
    """Every same-user distance is under 2 km and the farther bin holds more
    pairs, so the regression rises with distance (b > 0).  Such a law must
    not rank a POI 50 km from the user's history over one 0.5 km away: the
    fit is refused and the components use the flat model, with a warning."""
    km = 1 / 111.194926  # degrees of latitude per km
    visits = [("u1", "a", 0.0, 0.0), ("u1", "b", 0.3 * km, 0.0)]
    for i in range(2, 5):
        visits += [(f"u{i}", f"c{i}", 0.0, float(i)), (f"u{i}", f"d{i}", 1.8 * km, float(i))]
    visits += [("q", "home", 10.0, 10.0), ("v1", "near", 10.0 + 0.5 * km, 10.0),
               ("v2", "far", 10.0 + 50.0 * km, 10.0)]
    log = _log(visits)
    with caplog.at_level(logging.WARNING, logger="matirec.pipeline"):
        components = UsgComponents(log, load_config())
    matrix = components.matrix
    targets = np.array([matrix.poi_index["near"], matrix.poi_index["far"]])
    near, far = geo_log_scores(matrix, matrix.history(matrix.user_index["q"]), targets,
                               components.geo)
    assert far <= near
    assert components.geo.b == 0.0 and "geo fit degenerate" in caplog.text
    with pytest.raises(DataError, match="does not decay"):
        fit_geo_model(log)


def test_geo_score_monotone_in_distance():
    model = GeoModel(log_a=0.0, b=-1.5)
    near = geo_log_score([(0.0, 0.0)], (0.0, 0.009), model)   # ~1 km
    far = geo_log_score([(0.0, 0.0)], (0.0, 0.09), model)     # ~10 km
    assert near > far


def test_geo_score_coincident_is_maximal():
    model = GeoModel(log_a=0.0, b=-1.2)
    coords = {"visited": (5.0, 5.0), "near": (5.0, 5.01), "self": (5.0, 5.0)}
    scores = geo_scores([(5.0, 5.0)], ["visited", "near", "self"], coords, model)
    assert scores["self"] == max(scores.values()) == 1.0


def test_geo_score_product_matches_hand_computation():
    model = GeoModel(log_a=-0.3, b=-1.4, d_min_km=0.1)
    history = [(0.0, 0.0), (0.0, 0.02)]
    target = (0.01, 0.01)
    expected = sum(model.log_a + model.b * math.log(max(haversine_km(lat, lon, *target), 0.1))
                   for lat, lon in history)
    assert geo_log_score(history, target, model) == pytest.approx(expected, rel=1e-12)


def test_geo_empty_history_neutral():
    model = GeoModel(log_a=0.0, b=-1.0)
    assert geo_log_score([], (1.0, 1.0), model) == 0.0


def test_usg_alpha_beta_zero_is_ubcf():
    weights = UsgWeights(0.0, 0.0)
    assert usg_score(0.8, 0.3, 0.9, weights) == pytest.approx(0.8)


def test_usg_arithmetic():
    weights = UsgWeights(0.25, 0.25)
    assert usg_score(1.0, 0.0, 0.0, weights) == pytest.approx(0.5)


def test_usg_weight_bounds():
    with pytest.raises(ConfigError):
        UsgWeights(0.6, 0.5)
    with pytest.raises(ConfigError):
        UsgWeights(-0.1, 0.2)
    UsgWeights(0.2, 0.6)  # paper-style optimum is accepted
    UsgWeights(0.3, 0.4)


def test_rank_top_n_orders_and_ties():
    # Positions are in POI-id order, so equal scores keep ascending position.
    ranked, short = rank_top_n(np.array([0.9, 0.9, 0.1]), 2)
    assert ranked.tolist() == [0, 1]
    assert not short


def test_rank_top_n_short_list():
    ranked, short = rank_top_n(np.array([1.0]), 5)
    assert ranked.tolist() == [0]
    assert short


def test_rank_top_n_invalid_size():
    with pytest.raises(ConfigError):
        rank_top_n(np.array([1.0]), 0)


def test_scaling_component_leaves_ranking_unchanged():
    rng = np.random.default_rng(1)
    raw = rng.uniform(0, 5, size=20)
    a, _ = rank_top_n(max_normalize(raw), 10)
    b, _ = rank_top_n(max_normalize(3.7 * raw), 10)
    assert a.tolist() == b.tolist()


def test_poi_coordinates_first_seen():
    log = _log([("u", "p", 1.0, 2.0), ("v", "p", 3.0, 4.0)])
    matrix = UserPoiMatrix(log)
    p = matrix.poi_index["p"]
    assert (matrix.lat[p], matrix.lon[p]) == (1.0, 2.0)


def test_rank_top_n_prefix_nesting():
    rng = np.random.default_rng(13)
    scores = rng.uniform(size=30)
    full, _ = rank_top_n(scores, 30)
    for n in (1, 5, 10, 20):
        prefix, _ = rank_top_n(scores, n)
        assert prefix.tolist() == full[:n].tolist()


def test_rank_top_n_ties_at_the_cut_break_on_position():
    # Five-way tie straddling the cut at n=3: the lowest positions win.
    scores = np.array([0.5, 0.2, 0.9, 0.5, 0.5, 0.1, 0.5, 0.5])
    for n in range(1, 9):
        ranked, _ = rank_top_n(scores, n)
        assert ranked.tolist() == sorted(range(8), key=lambda i: (-scores[i], i))[:n]
