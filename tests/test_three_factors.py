"""The latent chain generalizes beyond two granularities.

A third, finer factor (half-day halves within the hour factor's containment
order) exercises the n-level conditional chain: table shapes, normalization,
EM, and scoring must all hold with three levels.
"""

import numpy as np
import pytest

import oracles as orc
from corpus import distinct_pois, stamp
from oracles import as_dicts, reference_em

from matirec.ingest import CheckIn, CheckInLog
from matirec.localtime import SECONDS_PER_HOUR
from matirec.mati import (joint_from_chain, layout_for, mati_mix, poi_depth_means, run_em,
                          shared_activity, validate_chain)
from matirec.slabs import SlabIndex, TemporalFactorSpec, all_slab_profiles, day_factor, hour_factor


def half_hour_factor():
    return TemporalFactorSpec("halfhour", 2, lambda ts: (ts % SECONDS_PER_HOUR) // 1800,
                              containment_rank=0)


@pytest.fixture(scope="module")
def three_factor_index():
    slabs = {
        "halfhour": [(0,), (1,)],
        "hour": [range(0, 12), range(12, 24)],
        "day": [range(0, 5), (5, 6)],
    }
    return SlabIndex([half_hour_factor(), hour_factor(), day_factor()], slabs)


def test_layout_three_levels(three_factor_index):
    layout = layout_for(three_factor_index)
    assert layout.levels == ("day", "hour", "halfhour")
    assert layout.shape == (2, 2, 2)
    assert three_factor_index.grid_shape() == (2, 2, 2)


def test_slab_of_three_factors(three_factor_index):
    ts = stamp(0, 5, 13, 45)  # Saturday 13:45
    assert orc.slab_id(three_factor_index, ts) == "halfhour:1|hour:1|day:1"
    assert three_factor_index.cells([ts]).tolist() == [7]  # (1, 1, 1) on the 2x2x2 grid


@pytest.fixture(scope="module")
def three_factor_log():
    rng = np.random.default_rng(17)
    checkins = []
    for ui in range(8):
        u = f"u{ui}"
        for pj in rng.choice(12, size=3, replace=False):
            p = f"l{pj}"
            for _ in range(40):
                ts = stamp(int(rng.integers(0, 4)), int(rng.integers(0, 7)),
                           int(rng.integers(0, 24)), int(rng.integers(0, 60)))
                checkins.append(CheckIn(u, p, ts, 0.0, 0.0))
    return CheckInLog.from_checkins(checkins)


def test_em_three_factor_chain_shapes(three_factor_index, three_factor_log):
    log = three_factor_log
    pairs = sorted({(c.user_id, c.poi_id) for c in log.checkins})
    params, report = run_em(log, three_factor_index, np.ones(len(pairs)))
    assert report.converged
    tables = as_dicts(params).pair_tables[pairs[0]]
    assert [t.shape for t in tables] == [(2,), (2, 2), (2, 2, 2)]
    validate_chain(tables)

    users, pois = all_slab_profiles(log, three_factor_index)
    user = pairs[0][0]
    candidates = sorted(set(log.columns.pois) - distinct_pois(log, user))
    columns = log.columns
    rows = pois[[columns.pois.index(p) for p in candidates]]
    psi = shared_activity(users[columns.users.index(user)], rows.T,
                          np.count_nonzero(rows, axis=-1))
    scores = mati_mix(psi, 0.5 * poi_depth_means(params, candidates), phi_t=0.6)
    assert len(scores) and all(0.0 <= v <= 1.0 for v in scores)


def test_em_three_factor_closed_form_matches_reference(three_factor_index, three_factor_log):
    log = three_factor_log
    pairs = sorted({(c.user_id, c.poi_id) for c in log.checkins})
    pr_nu = {p: 0.2 + 0.1 * (i % 7) for i, p in enumerate(pairs)}
    joints, trace = reference_em(log, three_factor_index, pr_nu)
    params, report = run_em(log, three_factor_index, np.array([pr_nu[p] for p in pairs]))
    assert report.iterations == len(trace) - 1
    assert np.allclose(report.log_likelihood, trace, rtol=1e-12, atol=0)
    tables = as_dicts(params).pair_tables
    for pair, want in joints.items():
        assert np.abs(joint_from_chain(tables[pair]) - want).max() <= 1e-12
