"""The integer-indexed scoring core against the scalar per-candidate oracles.

Random small logs always hold a friendless user, a social-only user (friends
but no history), two POIs on the same coordinate, and plenty of tied scores;
up to 12 neighbors and 13 friends make sums long enough for numpy's pairwise
summation to round differently from a left-to-right sum.
CF, social, the USG mix without geo, leave-one-out c*, pr_nu, psi, depth and
the rankings must match the oracles exactly; geo to 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from corpus import longtail_corpus, planted_corpus, stamp, three_by_three_index

from matirec import baselines as bl
from matirec.config import load_config
from matirec.ingest import CheckIn, CheckInLog
from matirec.mati import MatiParams, chain_from_joint, layout_for
from matirec.pipeline import (MatiRecommender, UbcfRecommender, UsgComponents, UsgRecommender,
                              training_pr_nu)
from matirec.slabs import all_slab_profiles

COORDS = [(10.0, 20.0), (10.01, 20.0), (10.0, 20.02), (10.3, 19.9)]


@st.composite
def small_logs(draw):
    n_users = draw(st.integers(2, 14))
    n_pois = draw(st.integers(3, 8))
    visits = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_pois - 1),
                                     st.integers(0, 6), st.integers(0, 23)),
                           min_size=1, max_size=60))
    where = [COORDS[0]] + draw(st.lists(st.sampled_from(COORDS), min_size=n_pois - 1,
                                        max_size=n_pois - 1))
    where[1] = where[0]  # duplicate coordinates
    edges = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_users - 1)),
                          max_size=30))
    checkins = [CheckIn(f"u{u}", f"p{p}", stamp(0, day, hour), *where[p])
                for u, p, day, hour in visits]
    checkins.append(CheckIn("solo", "p0", stamp(1, 2, 3), *where[0]))  # no friends
    social = [(f"u{a}", f"u{b}") for a, b in edges if a != b] + [("ghost", "u0")]
    return CheckInLog.from_checkins(checkins, social)


def _components(log, alpha, beta, k):
    cfg = load_config()
    cfg.usg.alpha, cfg.usg.beta, cfg.usg.k_neighbors = alpha, beta, k
    return UsgComponents(log, cfg)


def _random_chain(rng, shape):
    joint = rng.random(shape)
    return chain_from_joint(joint / joint.sum())


@given(log=small_logs(), alpha=st.sampled_from([0.0, 0.3]), beta=st.sampled_from([0.0, 0.4]),
       k=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_core_matches_scalar_oracles(log, alpha, beta, k, seed):
    comp = _components(log, alpha, beta, k)
    matrix, weights = comp.matrix, comp.weights
    friends = orc.friend_map(log)
    coords = orc.poi_coordinates(log)
    assert matrix.users == tuple(sorted(log.users()))
    for user in matrix.users:
        assert orc.pois_of(matrix, user) == set(log.distinct_pois(user))
        assert set(np.array(matrix.users)[matrix.friends(matrix.user_index[user])]) == \
            set(friends.get(user, ()))

    index = three_by_three_index()
    user_profiles, poi_profiles = all_slab_profiles(log, index)
    user_slabs, poi_profile_map = orc.slab_profiles(log, index)
    poi_slabs = {p: set(counts) for p, counts in poi_profile_map.items()}
    rng = np.random.default_rng(seed)
    shape = index.grid_shape()
    params = MatiParams(layout=layout_for(index), pr_nu={}, pair_tables={},
                        poi_tables={p: _random_chain(rng, shape) for p in matrix.pois[::2]},
                        global_table=_random_chain(rng, shape))
    mati = MatiRecommender(comp, params, user_profiles, poi_profiles, phi_t=0.6)

    for user in matrix.users + ("nobody",):
        cands = comp.candidates_for(user)
        assert cands == sorted(set(matrix.pois) - orc.pois_of(matrix, user))
        u = comp.user_int(user)
        cf = [orc.ubcf_score(user, p, matrix, k) for p in cands]
        assert comp.ubcf_scores(user).tolist() == cf
        social = [orc.social_score(user, p, matrix, friends) for p in cands]
        assert matrix.visit_rate(*bl.friend_weights(matrix, u))[comp.candidates(user)].tolist() \
            == social

        logs = bl.geo_log_scores(matrix, matrix.history(u), comp.candidates(user), comp.geo)
        history = [coords[p] for p in sorted(orc.pois_of(matrix, user))]
        geo = orc.geo_scores(history, cands, coords, comp.geo)
        if cands:
            np.testing.assert_allclose(np.exp(logs - logs.max()), [geo[p] for p in cands],
                                       rtol=1e-12, atol=0)

        usg = orc.usg_mix(*orc.usg_components(matrix, friends, coords, comp.geo, user, cands, k),
                          weights)
        got = comp.usg_scores(user)
        if beta == 0:
            assert got.tolist() == [usg[p] for p in cands]
        else:
            np.testing.assert_allclose(got, [usg[p] for p in cands], rtol=1e-12, atol=0)

        assert comp.leave_one_out_c_star(user) == orc.leave_one_out_c_star(
            matrix, friends, coords, comp.geo, weights, user, k)

        mine = set(user_slabs.get(user, ()))
        psi = mati.psi(user, comp.candidates(user))
        depth = got * mati.depth_means[comp.candidates(user)]
        want = [orc.mati_components(user, p, params, mine, poi_slabs[p], s)
                for p, s in zip(cands, got.tolist())]
        assert psi.tolist() == [w[0] for w in want]
        assert depth.tolist() == [w[1] for w in want]
        mati_scores = orc.mati_scores(user, cands, params, mine, poi_slabs,
                                      dict(zip(cands, got.tolist())), 0.6)
        assert mati.scores(user).tolist() == [mati_scores[p] for p in cands]

        for n in (1, 2, 5):
            assert UbcfRecommender(comp).recommend(user, n) == orc.rank(dict(zip(cands, cf)), n)
            assert mati.recommend(user, n) == orc.rank(mati_scores, n)
            if beta == 0:
                assert UsgRecommender(comp).recommend(user, n) == orc.rank(usg, n)

    if beta == 0:
        pr_nu = training_pr_nu(comp)
        for user in matrix.users:
            pois = sorted(orc.pois_of(matrix, user))
            if pois:
                scores = orc.usg_mix(*orc.usg_components(matrix, friends, coords, comp.geo,
                                                         user, pois, k), weights)
                top = max(scores.values())
                for p in pois:
                    assert pr_nu[(user, p)] == max(scores[p] / top if top > 0 else 1.0, 1e-12)


@pytest.mark.parametrize("corpus", ["planted-300", "longtail-200"])
def test_distance_bins_match_pairwise_loop(corpus):
    log = (planted_corpus(n_users=300, seed=2024) if corpus == "planted-300"
           else longtail_corpus(n_users=200, seed=1))
    assert bl.distance_bins(bl.UserPoiMatrix(log)) == orc.distance_bins(log)


def test_long_neighbor_sums_are_left_to_right():
    """Twelve neighbors whose similarity total rounds differently when summed
    pairwise (numpy's ``sum``) than left to right (the oracle)."""
    shared = [f"a{i:02d}" for i in range(12)]
    visits = [("u", p) for p in shared]
    for i in range(12):
        visits += [(f"v{i:02d}", p) for p in shared[:i + 1]] + [(f"v{i:02d}", f"x{i:02d}")]
    log = CheckInLog.from_checkins([CheckIn(u, p, stamp(0, 1, 9), 10.0, 20.0) for u, p in visits])
    comp = _components(log, 0.0, 0.0, 50)
    cands = comp.candidates_for("u")
    assert comp.ubcf_scores("u").tolist() == [orc.ubcf_score("u", p, comp.matrix) for p in cands]
