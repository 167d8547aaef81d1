import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from corpus import (GRID_TIMES, planted_corpus, recovery_instance, stamp, three_by_three_index,
                    total_variation)
from oracles import (DictParams, as_dicts, assert_matches_dense_em, e_step, joint_prob, m_step,
                     oracle_joint, oracle_m_step, oracle_responsibilities, reference_em, stacked)

from matirec import mati
from matirec.config import load_config
from matirec.errors import ConfigError, DataError
from matirec.ingest import CheckIn, CheckInLog
from matirec.mati import (ChainLayout, chain_from_joint, joint_from_chain, layout_for, mati_mix,
                          pair_keys, pair_of, params_from_json, params_to_json, poi_depth_means,
                          run_em, shared_activity, validate_chain)
from matirec.pipeline import build_slab_index
from matirec.slabs import SlabIndex, TemporalFactorSpec

CELLS = "abcdefgh"


def _cells(active, counts=1):
    """A row of per-cell check-in counts, active on the named cells."""
    return np.array([counts if c in active else 0 for c in CELLS])


def _shared(user_cells, rows):
    return shared_activity(user_cells, rows.T, np.count_nonzero(rows, axis=-1))


def _psi(user, poi):
    return float(_shared(_cells(user), _cells(poi)[None])[0])


def test_psi_identical_sets():
    assert _psi({"a", "b"}, {"a", "b"}) == 1.0


def test_psi_disjoint():
    assert _psi({"a"}, {"b"}) == 0.0


def test_psi_one_third():
    assert _psi({"a", "b"}, {"b", "c"}) == 1 / 3


def test_psi_counts_only_activity():
    """Counts above one weigh nothing; an empty side gives 0, as do both."""
    rows = np.stack([_cells({"b", "c"}, 7), _cells(set()), _cells({"a", "b"})])
    assert _shared(_cells({"a", "b"}, 3), rows).tolist() == [1 / 3, 0.0, 1.0]
    assert _shared(_cells(set()), rows).tolist() == [0.0, 0.0, 0.0]


def _factor(name, rank, slots=4):
    return TemporalFactorSpec(name, slots, lambda ts: 0, containment_rank=rank)


def _layout(*factors):
    """``layout_for`` an index of (name, containment rank, slab count)
    factors, one slot per slab."""
    specs = [_factor(name, rank, slots=count) for name, rank, count in factors]
    return layout_for(SlabIndex(specs, {f.name: [[s] for s in range(f.slot_count)]
                                        for f in specs}))


def test_chain_factorization_single_factor():
    layout = _layout(("hour", 1, 3))
    assert layout.levels == ("hour",)
    assert layout.shape == (3,)


def test_chain_factorization_two_factors_ordering():
    layout = _layout(("hour", 1, 4), ("day", 2, 3))
    assert layout.levels == ("day", "hour")  # coarsest first
    assert layout.shape == (3, 4)


def test_chain_factorization_three_factors():
    layout = _layout(("minute", 0, 2), ("hour", 1, 3), ("day", 2, 4))
    assert layout.levels == ("day", "hour", "minute")
    assert layout.shape == (4, 3, 2)
    assert layout.n_cells == 24


def test_chain_factorization_duplicate_rank_errors():
    with pytest.raises(ConfigError, match="duplicate containment ranks"):
        _layout(("a", 1, 2), ("b", 1, 2))


def test_chain_roundtrip_and_row_sums():
    rng = np.random.default_rng(0)
    joint = rng.dirichlet(np.ones(12)).reshape(3, 4)
    tables = chain_from_joint(joint)
    validate_chain(tables)
    assert np.allclose(joint_from_chain(tables), joint, atol=1e-15)
    assert joint_from_chain(tables).sum() == pytest.approx(1.0)


def test_chain_zero_mass_uniform_fallback():
    joint = np.array([[0.5, 0.5], [0.0, 0.0]])
    joint = joint / joint.sum()
    tables = chain_from_joint(joint)
    assert np.allclose(tables[1][1], [0.5, 0.5])  # uniform on the dead branch
    assert np.allclose(joint_from_chain(tables), joint)


def _params_for(tables_by_pair, pr_nu, shape=(3, 3)):
    layout = ChainLayout(("day", "hour"), shape)
    return DictParams(layout=layout, pr_nu=dict(pr_nu), pair_tables=dict(tables_by_pair))


def _random_chain(rng, shape):
    joint = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return chain_from_joint(joint)


def test_joint_prob_all_ones_is_zero_log():
    tables = [np.array([1.0]), np.array([[1.0]])]
    params = _params_for({("u", "l"): tables}, {("u", "l"): 1.0}, shape=(1, 1))
    assert joint_prob("u", "l", (0, 0), params) == 0.0


def test_joint_prob_zero_factor_sentinel():
    tables = [np.array([1.0, 0.0]), np.array([[0.5, 0.5], [0.5, 0.5]])]
    params = _params_for({("u", "l"): tables}, {("u", "l"): 1.0}, shape=(2, 2))
    assert joint_prob("u", "l", (1, 0), params) == -math.inf
    assert joint_prob("u", "l", (0, 0), params) == pytest.approx(math.log(0.5))


def test_joint_prob_matches_direct_product():
    rng = np.random.default_rng(4)
    tables = _random_chain(rng, (2, 3))
    pr_nu = 0.37
    params = _params_for({("u", "l"): tables}, {("u", "l"): pr_nu}, shape=(2, 3))
    for di in range(2):
        for hi in range(3):
            mine = math.exp(joint_prob("u", "l", (di, hi), params))
            assert mine == pytest.approx(oracle_joint(pr_nu, tables, (di, hi)), rel=1e-12)


def test_e_step_uniform_tables_uniform_resp():
    tables = [np.full(3, 1 / 3), np.full((3, 3), 1 / 3)]
    params = _params_for({("u", "l"): tables}, {("u", "l"): 0.5})
    resp = e_step(params, [("u", "l")])[("u", "l")]
    assert np.allclose(resp, 1 / 9)


def test_e_step_dominant_cell():
    joint = np.full((2, 2), 1e-6)
    joint[1, 1] = 1.0
    joint /= joint.sum()
    params = _params_for({("u", "l"): chain_from_joint(joint)}, {("u", "l"): 1.0}, (2, 2))
    resp = e_step(params, [("u", "l")])[("u", "l")]
    assert resp[1, 1] > 0.999
    assert resp.sum() == pytest.approx(1.0)


def test_e_step_no_support_errors():
    tables = [np.array([1.0, 0.0]), np.array([[0.0, 0.0], [0.5, 0.5]])]
    # Row (0,:) is zero and day 1 has zero mass: every assignment is impossible.
    params = _params_for({("u", "l"): tables}, {("u", "l"): 1.0}, (2, 2))
    with pytest.raises(DataError, match="no support"):
        e_step(params, [("u", "l")])


def test_m_step_fixed_point_without_evidence():
    rng = np.random.default_rng(9)
    tables = _random_chain(rng, (3, 3))
    resp = joint_from_chain(tables)
    out = m_step({("u", "l"): resp}, {}, gamma=1.0)[("u", "l")]
    for mine, orig in zip(out, tables):
        assert np.allclose(mine, orig, atol=1e-12)


def test_m_step_single_cell_support():
    resp = np.zeros((2, 2))
    resp[0, 1] = 1.0
    out = m_step({("u", "l"): resp}, {}, gamma=1.0)[("u", "l")]
    assert out[0][0] == 1.0
    assert out[1][0, 1] == 1.0
    validate_chain(out)


def test_m_step_two_by_two_hand_normalized():
    resp = np.array([[0.1, 0.3], [0.2, 0.4]])
    hist = np.array([[4.0, 0.0], [0.0, 6.0]])
    out = m_step({("u", "l"): resp}, {("u", "l"): hist}, gamma=1.0)[("u", "l")]
    expected = oracle_m_step(resp, hist, 1.0)
    assert np.allclose(out[0], expected[0], atol=1e-15)
    assert np.allclose(out[1], expected[1], atol=1e-15)


def test_oracle_equivalence_fuzz():
    """Randomized small instances: log-space pipeline vs direct enumeration."""
    rng = np.random.default_rng(31)
    for case in range(100):
        n_users = int(rng.integers(1, 6))
        n_pois = int(rng.integers(1, 7))
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        pairs = [(f"u{i}", f"l{j}") for i in range(n_users) for j in range(n_pois)]
        tables = {p: _random_chain(rng, shape) for p in pairs}
        pr_nu = {p: float(rng.uniform(0.01, 1.0)) for p in pairs}
        params = _params_for(tables, pr_nu, shape)
        resp = e_step(params, pairs)
        evidence = {}
        for p in pairs:
            if rng.random() < 0.5:
                evidence[p] = rng.integers(0, 5, size=shape).astype(float)
        new_tables = m_step(resp, evidence, gamma=1.0)
        for p in pairs:
            oracle_resp = oracle_responsibilities(pr_nu[p], tables[p])
            assert np.allclose(resp[p], oracle_resp, rtol=1e-12, atol=1e-15)
            expected = oracle_m_step(resp[p], evidence.get(p), 1.0)
            for mine, want in zip(new_tables[p], expected):
                assert np.allclose(mine, want, rtol=1e-12, atol=1e-15)
            for di in range(shape[0]):
                for hi in range(shape[1]):
                    mine = math.exp(joint_prob(*p, (di, hi), params))
                    want = oracle_joint(pr_nu[p], tables[p], (di, hi))
                    assert mine == pytest.approx(want, rel=1e-12)


def _small_recovery(**kw):
    defaults = dict(n_users=6, n_pois=10, pois_per_user=2, visits_per_pair=2500, seed=5)
    defaults.update(kw)
    return recovery_instance(**defaults)


def test_run_em_recovers_tables():
    log, index, truth, pairs = _small_recovery()
    params, report = run_em(log, index, np.ones(len(pairs)))
    assert report.converged
    assert report.iterations < 200
    worst = 0.0
    tables = as_dicts(params).pair_tables
    for pair in pairs:
        est = tables[pair]
        want = truth[pair]
        worst = max(worst, total_variation(est[0], want[0]))
        for di in range(3):
            worst = max(worst, total_variation(est[1][di], want[1][di]))
    assert worst < 0.05


def test_run_em_loglik_monotone():
    log, index, _, pairs = _small_recovery(seed=6)
    _, report = run_em(log, index, np.ones(len(pairs)))
    trace = report.log_likelihood
    for prev, cur in zip(trace, trace[1:]):
        assert cur >= prev - 1e-9 * max(1.0, abs(prev))


def test_run_em_requires_positive_pr_nu():
    log, index, _, pairs = _small_recovery()
    bad = np.ones(len(pairs))
    bad[0] = 0.0
    with pytest.raises(DataError, match="positive"):
        run_em(log, index, bad)


def test_run_em_closed_form_matches_reference():
    log, index, _, pairs = recovery_instance(n_users=20, n_pois=40, pois_per_user=3,
                                             visits_per_pair=5, seed=77)
    rng = np.random.default_rng(3)
    pr_nu = {p: float(rng.uniform(0.1, 1.0)) for p in pairs}
    joints, trace = reference_em(log, index, pr_nu)
    params, report = run_em(log, index, np.array([pr_nu[p] for p in pairs]))
    assert report.iterations == len(trace) - 1
    assert np.allclose(report.log_likelihood, trace, rtol=1e-12, atol=0)
    tables = as_dicts(params).pair_tables
    for pair, want in joints.items():
        assert np.abs(joint_from_chain(tables[pair]) - want).max() <= 1e-12


def test_run_em_weights_move_only_the_stop_rule():
    """Pr_nu is a constant factor of each pair's joint, so with the stop rule
    off (tol=0, k = max_iter) uniform and random positive weights give the
    same chains bit for bit, and their traces differ by sum n_pair log w_pair
    at every k."""
    log, index, _, _ = recovery_instance(n_users=20, n_pois=40, pois_per_user=3,
                                         visits_per_pair=5, seed=77)
    pairs = [pair_of(key) for key in pair_keys(log)]
    weights = np.random.default_rng(8).uniform(0.05, 3.0, len(pairs))
    uniform, uniform_report = run_em(log, index, np.ones(len(pairs)), max_iter=15, tol=0)
    weighted, weighted_report = run_em(log, index, weights, max_iter=15, tol=0)

    assert uniform_report.iterations == weighted_report.iterations == 15
    for a, b in ((uniform.pair_tables, weighted.pair_tables),
                 (uniform.poi_tables, weighted.poi_tables)):
        assert a.keys == b.keys
        assert ([x.tobytes() for x in a.chains(0, len(a))]
                == [y.tobytes() for y in b.chains(0, len(b))])
    assert ([x.tobytes() for x in uniform.global_table]
            == [y.tobytes() for y in weighted.global_table])
    visits = Counter((c.user_id, c.poi_id) for c in log.checkins)
    shift = math.fsum(visits[p] * math.log(w) for p, w in zip(pairs, weights))
    assert abs(shift) > 1
    for flat, tilted in zip(uniform_report.log_likelihood, weighted_report.log_likelihood,
                            strict=True):
        assert tilted - flat == pytest.approx(shift, rel=1e-12)


@pytest.fixture(scope="module")
def planted_300():
    log = planted_corpus(n_users=300, seed=2024)
    cfg = load_config()
    cfg.sampling.m_min, cfg.sampling.n_percent = 20, 10
    return log, build_slab_index(log, cfg).index


def test_run_em_matches_dense_reference_on_planted(planted_300):
    assert_matches_dense_em(*planted_300)
    assert_matches_dense_em(*planted_300, max_iter=15, tol=0)


def test_run_em_matches_dense_reference_with_an_empty_coarse_slab():
    """No check-in falls in day slab 2, so every pair, POI and the global
    chain has a zero-mass day row, which factors to the uniform 1/3."""
    rng = np.random.default_rng(4)
    checkins = [CheckIn(f"u{u}", f"l{p}", stamp(0, *GRID_TIMES[(di, hi)]), 0.0, 0.0)
                for u in range(5) for p in rng.choice(6, size=2, replace=False)
                for di, hi in rng.integers(0, [2, 3], size=(int(rng.integers(1, 8)), 2))]
    log = CheckInLog.from_checkins(checkins)
    params = assert_matches_dense_em(log, three_by_three_index())
    for hour in (params.pair_tables.chains(0, len(params.pair_tables))[1],
                 params.poi_tables.levels[1],
                 params.global_table[1][None]):
        assert (hour[:, 2] == 1 / 3).all()


def test_chain_from_joint_leaves_its_argument():
    joint = np.array([[0.2, 0.3], [0.0, 0.0], [0.4, 0.1]])
    before = joint.copy()
    tables = chain_from_joint(joint)
    assert joint.tobytes() == before.tobytes()
    assert tables[1][1].tolist() == [0.5, 0.5]


def test_run_em_peak_memory_stays_near_one_grid(planted_300):
    """EM holds the final joints grid and little else: its traced peak stays
    within 2.5 (pairs × cells) float64 grids."""
    log, index = planted_300
    weights = np.ones(len(log.columns.pairs))
    grid_bytes = len(weights) * math.prod(index.grid_shape()) * 8
    tracemalloc.start()
    try:
        run_em(log, index, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid_bytes, f"peak {peak / grid_bytes:.2f} grids"


def test_run_em_params_hold_less_than_half_a_grid(planted_300):
    """The pair chains stay in closed form (the evidence, r^k and J_0), so the
    parameters EM returns hold under half a (pairs × cells) float64 grid;
    stacked pair chains alone would hold more than one."""
    log, index = planted_300
    weights = np.ones(len(log.columns.pairs))
    grid_bytes = len(weights) * math.prod(index.grid_shape()) * 8
    tracemalloc.start()
    try:
        result = run_em(log, index, weights)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    assert held < 0.5 * grid_bytes, f"held {held / grid_bytes:.2f} grids"


def _grid_bytes(log, index) -> int:
    """Bytes of one (pairs × cells) float64 grid."""
    return len(log.columns.pairs) * math.prod(index.grid_shape()) * 8


def test_run_em_peak_memory_stays_below_a_grid(planted_300):
    """EM sums the POI backoff joints ``PARAMS_SLICE`` pairs at a time, so no
    (pairs × cells) grid is held: its traced peak stays below 0.8 of one.
    Building the whole joints grid to sum them peaked at about 1.43 grids."""
    log, index = planted_300
    tracemalloc.start()
    try:
        run_em(log, index, np.ones(len(log.columns.pairs)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid_bytes = _grid_bytes(log, index)
    assert peak < 0.8 * grid_bytes, f"peak {peak / grid_bytes:.2f} grids"


def test_read_params_hold_under_four_tenths_of_a_grid(planted_300):
    """The parameters ``params_from_json`` returns keep each level's distinct
    rows and an int32 row id per table row, so they hold under 0.4 of a
    (pairs × cells) float64 grid; dense pair levels held about 1.24 grids."""
    log, index = planted_300
    params, _ = run_em(log, index, np.ones(len(log.columns.pairs)))
    stream = io.StringIO(str(params_to_json(params)))
    del params
    tracemalloc.start()
    try:
        restored = params_from_json(stream)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del restored
    grid_bytes = _grid_bytes(log, index)
    assert held < 0.4 * grid_bytes, f"held {held / grid_bytes:.2f} grids"


@pytest.mark.parametrize("slice_size", [1, 7])
def test_run_em_sums_poi_joints_alike_at_any_slice_size(slice_size, monkeypatch):
    """The POI backoff joints are summed a slice of pairs at a time, in pair
    row order, so every slice size gives the dense reference's bits."""
    monkeypatch.setattr(mati, "PARAMS_SLICE", slice_size)
    assert_matches_dense_em(planted_corpus(n_users=30, seed=6), three_by_three_index())


def test_run_em_unseen_pair_backoff():
    log, index, _, pairs = _small_recovery()
    params, _ = run_em(log, index, np.ones(len(pairs)))
    user = pairs[0][0]
    seen_pois = {l for (u, l) in pairs if u == user}
    unseen = next(l for (u, l) in pairs if l not in seen_pois)
    tables = as_dicts(params).tables_for(user, unseen)
    validate_chain(tables)
    assert unseen in params.poi_tables.keys


def mati_scores(candidates, params, user_profile, poi_profiles, pr_nu, phi_t):
    """The library's MATI mixture over ``candidates``, as a dict."""
    psi = _shared(user_profile, np.stack([poi_profiles[l] for l in candidates]))
    depth = np.array([pr_nu[l] for l in candidates]) * poi_depth_means(params, candidates)
    return dict(zip(candidates, mati_mix(psi, depth, phi_t).tolist()))


def _score_setup():
    """Two candidates with opposing shared-activity and depth signals."""
    layout = ChainLayout(("day", "hour"), (1, 1))
    unit = [np.array([1.0]), np.array([[1.0]])]
    params = stacked(DictParams(layout=layout, pr_nu={}, pair_tables={},
                                poi_tables={"l1": unit, "l2": unit}, global_table=unit))
    user_profile = _cells({"a", "b"})
    poi_profiles = {"l1": _cells({"a", "b"}),   # psi 1.0
                    "l2": _cells({"h"})}        # psi 0.0
    pr_nu = {"l1": 0.2, "l2": 0.9}
    return params, user_profile, poi_profiles, pr_nu


def test_mati_score_phi_one_ranks_by_shared_activity():
    params, up, pp, pr_nu = _score_setup()
    scores = mati_scores(["l1", "l2"], params, up, pp, pr_nu, phi_t=1.0)
    assert scores["l1"] > scores["l2"]


def test_mati_score_phi_zero_ranks_by_depth():
    params, up, pp, pr_nu = _score_setup()
    scores = mati_scores(["l1", "l2"], params, up, pp, pr_nu, phi_t=0.0)
    assert scores["l2"] > scores["l1"]
    # With a single trivial slab the depth ranking is the pr_nu ranking.
    order = sorted(scores, key=scores.get, reverse=True)
    assert order == sorted(pr_nu, key=pr_nu.get, reverse=True)


def test_mati_score_scale_invariance():
    params, up, pp, pr_nu = _score_setup()
    base = mati_scores(["l1", "l2"], params, up, pp, pr_nu, phi_t=0.4)
    scaled = mati_scores(["l1", "l2"], params, up, pp,
                         {k: 7.3 * v for k, v in pr_nu.items()}, phi_t=0.4)
    assert base == pytest.approx(scaled)


def test_mati_score_phi_bounds():
    params, up, pp, pr_nu = _score_setup()
    with pytest.raises(ConfigError):
        mati_scores(["l1"], params, up, pp, pr_nu, phi_t=1.5)


def test_params_json_roundtrip_and_checksum_guard():
    log, index, _, pairs = _small_recovery()
    params, _ = run_em(log, index, np.ones(len(pairs)))
    text = str(params_to_json(params))
    restored = params_from_json(io.StringIO(text), expected_checksum=index.checksum)
    assert restored.layout == params.layout
    pair = pairs[0]
    for mine, orig in zip(as_dicts(restored).pair_tables[pair], as_dicts(params).pair_tables[pair]):
        assert np.allclose(mine, orig)
    with pytest.raises(DataError, match="different slab index"):
        params_from_json(io.StringIO(text), expected_checksum="deadbeef")


def test_layout_for_index():
    layout = layout_for(three_by_three_index())
    assert layout.levels == ("day", "hour")
    assert layout.shape == (3, 3)


def test_evidence_grid_alignment():
    """GRID_TIMES cells land in the slab-grid positions they claim."""
    index = three_by_three_index()
    for (di, hi), (day, hour) in GRID_TIMES.items():
        assert index.cells(stamp(0, day, hour)) == di * 3 + hi
