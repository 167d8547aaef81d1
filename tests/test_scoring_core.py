"""The integer-indexed scoring core against the scalar per-candidate oracles.

Random small logs always hold a friendless user, a social-only user (friends
but no history), two POIs on the same coordinate, and plenty of tied scores;
up to 12 neighbors and 13 friends make sums long enough for numpy's pairwise
summation to round differently from a left-to-right sum.
CF, social, the USG mix without geo, leave-one-out c*, psi, depth and the
rankings must match the oracles exactly; geo to 1e-12 relative.  c* is also
checked at corpus scale, at the default k = 50.  The batched geo-fit pass
(``distance_bins``) must match the pairwise loop exactly, with blocks small
enough that their boundaries fall inside the log.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from corpus import distinct_pois, longtail_corpus, planted_corpus, stamp, three_by_three_index

from matirec import baselines as bl
from matirec.config import load_config
from matirec.ingest import CheckIn, CheckInLog
from matirec.mati import chain_from_joint, layout_for
from matirec.pipeline import MatiRecommender, UbcfRecommender, UsgComponents, UsgRecommender
from matirec.slabs import all_slab_profiles

COORDS = [(10.0, 20.0), (10.01, 20.0), (10.0, 20.02), (10.3, 19.9)]


@st.composite
def random_checkins(draw):
    """Check-ins and social edges of a small random log (see the module docstring)."""
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
    return checkins, social


def small_logs():
    return random_checkins().map(lambda drawn: CheckInLog.from_checkins(*drawn))


@st.composite
def training_logs(draw):
    """A random log plus a user alone at a POI of their own and three users
    with the same two POIs on one coordinate (zero distances)."""
    checkins, social = draw(random_checkins())
    checkins.append(CheckIn("hermit", "pz", stamp(2, 0, 5), 10.0, 20.05))
    checkins += [CheckIn(f"twin{i}", p, stamp(2, 1, 9), *COORDS[0])
                 for i in range(3) for p in ("p0", "p1")]
    return CheckInLog.from_checkins(checkins, social)


def _components(log, alpha, beta, k):
    cfg = load_config()
    cfg.usg.alpha, cfg.usg.beta, cfg.usg.k_neighbors = alpha, beta, k
    return UsgComponents(log, cfg)


def _social_rates(matrix, u):
    friends, inter, union = bl.friend_weights(matrix, u)
    return matrix.visit_rate(friends, inter / union)


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
    assert matrix.users == tuple(sorted(log.columns.users))
    for user in matrix.users:
        assert orc.pois_of(matrix, user) == distinct_pois(log, user)
        assert set(np.array(matrix.users)[matrix.friends(matrix.user_index[user])]) == \
            set(friends.get(user, ()))

    index = three_by_three_index()
    user_profiles, poi_profiles = all_slab_profiles(log, index)
    user_slabs, poi_profile_map = orc.slab_profiles(log, index)
    poi_slabs = {p: set(counts) for p, counts in poi_profile_map.items()}
    rng = np.random.default_rng(seed)
    shape = index.grid_shape()
    params = orc.DictParams(layout=layout_for(index), pr_nu={}, pair_tables={},
                            poi_tables={p: _random_chain(rng, shape) for p in matrix.pois[::2]},
                            global_table=_random_chain(rng, shape))
    mati = MatiRecommender(comp, orc.stacked(params), user_profiles, poi_profiles, phi_t=0.6)

    for user in matrix.users + ("nobody",):
        cands = comp.candidates_for(user)
        assert cands == sorted(set(matrix.pois) - orc.pois_of(matrix, user))
        u = comp.user_int(user)
        cf = [orc.ubcf_score(user, p, matrix, k) for p in cands]
        assert comp.ubcf_scores(user).tolist() == cf
        social = [orc.social_score(user, p, matrix, friends) for p in cands]
        assert _social_rates(matrix, u)[comp.candidates(user)].tolist() == social

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

        c_star = orc.leave_one_out_c_star(matrix, friends, coords, comp.geo, weights, user, k)
        got_c_star = comp.leave_one_out_c_star(user).tolist()
        assert dict(zip(matrix.ids(matrix.history(u)), got_c_star)) == c_star

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


@given(log=training_logs(), block=st.integers(1, 40))
def test_distance_bins_match_pairwise_loop_on_random_logs(log, block):
    matrix = bl.UserPoiMatrix(log)
    assert {0, 1} <= set(matrix.degree.tolist())
    with mock.patch.object(bl, "BLOCK_ENTRIES", block):
        assert bl.distance_bins(matrix) == orc.distance_bins(log)


@pytest.mark.parametrize("corpus", ["planted-300", "longtail-200"])
def test_distance_bins_match_pairwise_loop(corpus):
    log = (planted_corpus(n_users=300, seed=2024) if corpus == "planted-300"
           else longtail_corpus(n_users=200, seed=1))
    assert bl.distance_bins(bl.UserPoiMatrix(log)) == orc.distance_bins(log)


def test_long_neighbor_sums_are_left_to_right():
    """Twelve neighbors whose similarity total rounds differently when summed
    pairwise (numpy's ``sum``) than left to right (the oracle).  v_i visits
    the first i + 1 shared POIs, so the neighbors' ranks and ids disagree,
    and ``ubcf_scores`` must still add the total in rank order."""
    shared = [f"a{i:02d}" for i in range(12)]
    visits = [("u", p) for p in shared]
    for i in range(12):
        visits += [(f"v{i:02d}", p) for p in shared[:i + 1]] + [(f"v{i:02d}", f"x{i:02d}")]
    log = CheckInLog.from_checkins([CheckIn(u, p, stamp(0, 1, 9), 10.0, 20.0) for u, p in visits])
    comp = _components(log, 0.0, 0.0, 50)
    cands = comp.candidates_for("u")
    assert comp.ubcf_scores("u").tolist() == [orc.ubcf_score("u", p, comp.matrix) for p in cands]


@pytest.mark.parametrize("corpus", ["planted-300", "longtail-200"])
def test_leave_one_out_c_star_matches_oracle_at_corpus_scale(corpus):
    """c* at the default k = 50 on a real corpus, exactly: users with more than
    50 positive held-out overlaps (and a tie at the 50th neighbor, where the
    corpus has one), plus an added single-POI user and an added friendless
    user, who share POIs with many others."""
    log = (planted_corpus(n_users=300, seed=2024) if corpus == "planted-300"
           else longtail_corpus(n_users=200, seed=1))
    matrix = bl.UserPoiMatrix(log)
    busiest = [matrix.users[u] for u in np.argsort(-matrix.degree, kind="stable")[:8]]
    top_poi = matrix.pois[int(np.argmax(np.diff(matrix.visitor_indptr)))]
    extra = [CheckIn("~single", top_poi, stamp(3, 0, 9), *orc.poi_coordinates(log)[top_poi])]
    extra += [CheckIn("~friendless", c.poi_id, c.timestamp, c.lat, c.lon)
              for c in log.checkins if c.user_id == busiest[0]]
    log = CheckInLog.from_checkins(list(log.checkins) + extra,
                                   [*log.social_edges, ("~single", busiest[1])])
    comp = UsgComponents(log, load_config())
    matrix, k = comp.matrix, comp.k_neighbors
    friends, coords = orc.friend_map(log), orc.poi_coordinates(log)
    assert k == 50
    assert matrix.degree[matrix.user_index["~single"]] == 1
    assert not len(matrix.friends(matrix.user_index["~friendless"]))
    crowded = tied = False
    for user in busiest + ["~single", "~friendless"]:
        for p in sorted(orc.pois_of(matrix, user)):
            sims = [s for _, s in orc.top_neighbors(matrix, user, len(matrix.users), p)]
            crowded |= len(sims) > k
            tied |= len(sims) > k and sims[k - 1] == sims[k]
        want = orc.leave_one_out_c_star(matrix, friends, coords, comp.geo, comp.weights, user, k)
        got = comp.leave_one_out_c_star(user).tolist()
        assert dict(zip(matrix.ids(matrix.history(comp.user_int(user))), got)) == want
    assert crowded and tied
