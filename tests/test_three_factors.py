"""The latent chain generalizes beyond two granularities.

A third, finer factor (half-day halves within the hour factor's containment
order) exercises the n-level conditional chain: table shapes, normalization,
EM, and scoring must all hold with three levels.
"""

import numpy as np
import pytest

import corpus
import oracles as orc
from corpus import distinct_pois, stamp
from oracles import as_dicts, assert_matches_dense_em, reference_em

from matirec.mati import (joint_from_chain, layout_for, mati_mix, poi_depth_means, run_em,
                          shared_activity, validate_chain)
from matirec.slabs import all_slab_profiles


@pytest.fixture(scope="module")
def three_factor_index():
    return corpus.three_factor_index()


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
    return corpus.three_factor_log()


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
    depth = poi_depth_means(params)[[columns.pois.index(p) for p in candidates]]
    scores = mati_mix(psi, 0.5 * depth, phi_t=0.6)
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


def test_em_three_factor_matches_dense_reference(three_factor_index, three_factor_log):
    assert_matches_dense_em(three_factor_log, three_factor_index)
