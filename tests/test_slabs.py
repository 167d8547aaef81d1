import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from corpus import stamp
from oracles import oracle_rank1_completion, slot_pair_similarity, user_slot_vectors

from matirec.errors import ConfigError, DataError
from matirec.ingest import CheckIn, CheckInLog
from matirec.localtime import SECONDS_PER_DAY, SECONDS_PER_HOUR
from matirec.slabs import (SimilaritySamples, SlabIndex, SlotSimilarityMatrix, TemporalFactorSpec,
                           aggregate_similarity, all_slab_profiles, complete_matrix, day_factor,
                           hac_complete_linkage, hour_factor, similarity_csv)


def test_slot_of_monday_evening():
    ts = 1270503000  # 2010-04-05T21:30Z, a Monday
    assert hour_factor().slot_of(ts) == 21
    assert day_factor().slot_of(ts) == 0


def test_slot_of_midnight():
    assert hour_factor().slot_of(stamp(0, 0, 0)) == 0


def test_slot_of_sunday_last_hour():
    ts = stamp(0, 6, 23) + 59 * 60
    assert day_factor().slot_of(ts) == 6
    assert hour_factor().slot_of(ts) == 23


def test_slot_of_respects_offset():
    ts = stamp(0, 0, 23)  # Monday 23:00 UTC
    assert hour_factor(utc_offset=2 * 3600).slot_of(ts) == 1
    assert day_factor(utc_offset=2 * 3600).slot_of(ts) == 1  # rolls into Tuesday


def test_user_slot_vectors_counts():
    history = [CheckIn("u", "p1", stamp(0, 0, 9), 0.0, 0.0),
               CheckIn("u", "p1", stamp(0, 1, 9), 0.0, 0.0),
               CheckIn("u", "p2", stamp(0, 0, 14), 0.0, 0.0)]
    vectors = user_slot_vectors(history, hour_factor())
    assert vectors[9] == {"p1": 2.0}
    assert vectors[14] == {"p2": 1.0}
    total = sum(c for vec in vectors.values() for c in vec.values())
    assert total == len(history)


def test_user_slot_vectors_binary():
    history = [CheckIn("u", "p1", stamp(0, 0, 9), 0.0, 0.0),
               CheckIn("u", "p1", stamp(0, 1, 9), 0.0, 0.0)]
    vectors = user_slot_vectors(history, hour_factor(), binary=True)
    assert vectors[9] == {"p1": 1.0}


def test_similarity_identical_vectors():
    assert slot_pair_similarity({"a": 2.0, "b": 1.0}, {"a": 2.0, "b": 1.0}) == pytest.approx(1.0)


def test_similarity_disjoint_supports():
    assert slot_pair_similarity({"a": 1.0}, {"b": 1.0}) == 0.0


def test_similarity_half_overlap():
    value = slot_pair_similarity({"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 1.0})
    assert value == pytest.approx(0.5)


def test_similarity_inactive_slot_is_no_sample():
    assert slot_pair_similarity({}, {"a": 1.0}) is None


def _two_slot_factor():
    return TemporalFactorSpec("two", 2, lambda ts: 0, containment_rank=1)


def test_aggregate_mean_and_count():
    samples = SimilaritySamples(TemporalFactorSpec("six", 6, lambda ts: 0, containment_rank=1))
    samples.extend([1, 2], [2, 1], [0.2, 0.4])
    matrix = aggregate_similarity(samples, m_min=1)
    assert matrix.sim[1, 2] == pytest.approx(0.3)
    assert matrix.sim[2, 1] == pytest.approx(0.3)
    assert matrix.count[1, 2] == 2
    assert not matrix.observed[2, 5]
    assert np.isnan(matrix.sim[2, 5])
    assert matrix.sim[3, 3] == 1.0


def test_aggregate_below_floor_unobserved():
    samples = SimilaritySamples(_two_slot_factor())
    samples.extend([0], [1], [0.9])
    matrix = aggregate_similarity(samples, m_min=2)
    assert not matrix.observed[0, 1]


def _matrix_from(sim, observed):
    n = sim.shape[0]
    factor = TemporalFactorSpec(f"f{n}", n, lambda ts: 0, containment_rank=1)
    return SlotSimilarityMatrix(factor, sim.copy(), np.zeros((n, n), dtype=int),
                                observed.copy(), np.zeros((n, n), dtype=bool))


def test_complete_fully_observed_unchanged():
    sim = np.array([[1.0, 0.5], [0.5, 1.0]])
    matrix = _matrix_from(sim, np.ones((2, 2), dtype=bool))
    out = complete_matrix(matrix, rank=1, reg=0.0)
    assert np.array_equal(out.sim, sim)
    assert not out.completed_mask.any()


def test_complete_rank1_recovers_hidden_cell():
    rng = np.random.default_rng(42)
    u = rng.uniform(0.3, 0.9, size=6)
    sim = np.outer(u, u)
    observed = np.ones((6, 6), dtype=bool)
    observed[1, 4] = observed[4, 1] = False
    matrix = _matrix_from(np.where(observed, sim, np.nan), observed)
    out = complete_matrix(matrix, rank=1, reg=0.0, iters=500, tol=1e-14)
    expected = oracle_rank1_completion(sim, (1, 4))
    assert out.sim[1, 4] == pytest.approx(u[1] * u[4], abs=1e-6)
    assert out.sim[1, 4] == pytest.approx(expected, abs=1e-6)
    assert out.completed_mask[1, 4] and out.completed_mask[4, 1]
    # observed cells untouched
    mask = observed.copy()
    assert np.array_equal(out.sim[mask], sim[mask])


def test_complete_rank2_rmse():
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.0, math.pi / 2, size=24)
    factors = np.column_stack([np.cos(angles), np.sin(angles)])
    sim = factors @ factors.T  # unit diagonal, entries in [0, 1]
    observed = np.ones((24, 24), dtype=bool)
    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    hide = rng.choice(len(pairs), size=int(0.2 * len(pairs)), replace=False)
    for k in hide:
        i, j = pairs[k]
        observed[i, j] = observed[j, i] = False
    matrix = _matrix_from(np.where(observed, sim, np.nan), observed)
    out = complete_matrix(matrix, rank=2, reg=1e-9, iters=500, tol=1e-12)
    hidden = ~observed
    rmse = float(np.sqrt(np.mean((out.sim[hidden] - sim[hidden]) ** 2)))
    assert rmse < 0.05
    assert ((out.sim[hidden] >= 0) & (out.sim[hidden] <= 1)).all()


def test_complete_insufficient_observations():
    sim = np.full((6, 6), np.nan)
    np.fill_diagonal(sim, 1.0)
    observed = np.eye(6, dtype=bool)
    observed[0, 1] = observed[1, 0] = True
    sim[0, 1] = sim[1, 0] = 0.5
    matrix = _matrix_from(sim, observed)
    with pytest.raises(DataError, match="insufficient observations for rank 3"):
        complete_matrix(matrix, rank=3)


def test_complete_requires_off_diagonal():
    sim = np.eye(3)
    matrix = _matrix_from(sim, np.eye(3, dtype=bool))
    with pytest.raises(DataError, match="off-diagonal"):
        complete_matrix(matrix, rank=1)


def _full_matrix(sim):
    return _matrix_from(sim, np.ones(sim.shape, dtype=bool))


def test_hac_merges_similar_evening_hours():
    n = 24
    sim = np.full((n, n), 0.1)
    np.fill_diagonal(sim, 1.0)
    for a in (21, 22, 23):
        for b in (21, 22, 23):
            if a != b:
                sim[a, b] = 0.8
    slabs = hac_complete_linkage(_full_matrix(sim), threshold=0.6)
    merged = [s for s in slabs if len(s) > 1]
    assert len(merged) == 1
    assert merged[0] == (21, 22, 23)


def test_hac_merges_tue_thu():
    n = 7
    sim = np.full((n, n), 0.2)
    np.fill_diagonal(sim, 1.0)
    sim[1, 3] = sim[3, 1] = 0.75
    slabs = hac_complete_linkage(_full_matrix(sim), threshold=0.6)
    assert (1, 3) in slabs


def test_hac_threshold_above_everything_gives_singletons():
    rng = np.random.default_rng(0)
    sim = rng.uniform(0.0, 0.5, size=(7, 7))
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    slabs = hac_complete_linkage(_full_matrix(sim), threshold=0.95)
    assert all(len(s) == 1 for s in slabs)
    assert len(slabs) == 7


def test_hac_complete_linkage_guarantee_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        sim = rng.uniform(0, 1, size=(n, n))
        sim = (sim + sim.T) / 2
        np.fill_diagonal(sim, 1.0)
        threshold = float(rng.uniform(0.2, 0.9))
        slabs = hac_complete_linkage(_full_matrix(sim), threshold)
        covered = sorted(s for slab in slabs for s in slab)
        assert covered == list(range(n))
        for slab in slabs:
            members = sorted(slab)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert sim[a, b] >= threshold


def test_hac_requires_completed_matrix():
    sim = np.full((3, 3), np.nan)
    np.fill_diagonal(sim, 1.0)
    matrix = _matrix_from(sim, np.eye(3, dtype=bool))
    with pytest.raises(DataError, match="completion"):
        hac_complete_linkage(matrix, 0.5)


def test_cross_slabs_product_count():
    """The cell grid is the full cross product of the per-factor slabs."""
    sets = {
        "hour": [range(0, 8), range(8, 16), range(16, 24)],
        "day": [range(0, 5), range(5, 7)],
    }
    index = SlabIndex([hour_factor(), day_factor()], sets)
    assert index.grid_shape() == (2, 3)
    ids = orc.cell_ids(index)
    assert len(ids) == 6
    assert ids[0] == "hour:0|day:0"
    # Weekday evening: day slab 0, hour slab 2.
    assert index.cells([stamp(0, 1, 20)]).tolist() == [ids.index("hour:2|day:0")] == [2]


def test_cross_slabs_single_factor_identity():
    sets = {"hour": [range(0, 12), range(12, 24)]}
    index = SlabIndex([hour_factor()], sets)
    assert orc.cell_ids(index) == ["hour:0", "hour:1"]
    assert index.cells([stamp(0, 3, 11), stamp(0, 3, 12)]).tolist() == [0, 1]


def test_cross_slabs_empty_factors_error():
    with pytest.raises(DataError):
        SlabIndex([], {})


def test_cross_slabs_duplicate_rank_error():
    a = TemporalFactorSpec("a", 2, lambda ts: 0, containment_rank=1)
    b = TemporalFactorSpec("b", 2, lambda ts: 0, containment_rank=1)
    sets = {"a": [[0, 1]], "b": [[0, 1]]}
    with pytest.raises(ConfigError, match="duplicate"):
        SlabIndex([a, b], sets)


def _fig_index():
    """Hour slab {21,22,23} and day slab {Tue,Thu} among singletons."""
    hour_slots = [[h] for h in range(21)] + [[21, 22, 23]]
    day_slots = [[0], [1, 3], [2], [4], [5], [6]]
    return SlabIndex([hour_factor(), day_factor()], {"hour": hour_slots, "day": day_slots})


def test_slab_of_merged_block():
    index = _fig_index()
    tue_22 = stamp(0, 1, 22)
    thu_21 = stamp(0, 3, 21)
    cells = index.cells([tue_22, thu_21]).tolist()
    assert cells[0] == cells[1] == orc.flat_cell(index, tue_22)
    assert orc.cell_ids(index)[cells[0]] == orc.slab_id(index, thu_21) == "hour:21|day:1"


def test_slab_of_same_slots_same_slab():
    index = _fig_index()
    a = stamp(0, 4, 7, 5)
    b = stamp(3, 4, 7, 59)
    assert index.cells(a) == index.cells(b)


def test_multi_slabs_partition_timestamps():
    index = _fig_index()
    rng = np.random.default_rng(5)
    timestamps = rng.integers(1, 2_000_000_000, size=2000)
    cells = index.cells(timestamps)
    assert cells.dtype == np.intp
    assert cells.tolist() == [orc.flat_cell(index, int(ts)) for ts in timestamps]


def _cell_factor(name: str, rank: int, offset: int) -> TemporalFactorSpec:
    if name == "halfhour":
        return TemporalFactorSpec("halfhour", 2, lambda ts: (ts + offset) % 3600 // 1800,
                                  containment_rank=rank, utc_offset=offset)
    return {"hour": hour_factor, "day": day_factor}[name](offset)


@st.composite
def cell_indexes(draw):
    """1 to 3 factors (half-hour, hour, day) at one UTC offset, each slot
    partition drawn at random."""
    names = draw(st.lists(st.sampled_from(["halfhour", "hour", "day"]), min_size=1,
                          max_size=3, unique=True))
    offset = draw(st.sampled_from([0, 3600, -3600, 5 * 3600 + 1800, -8 * 3600, -9 * 3600 - 1800]))
    rank = {"halfhour": 0, "hour": 1, "day": 2}
    factors = [_cell_factor(name, rank[name], offset) for name in names]
    sets = {}
    for f in factors:
        labels = draw(st.lists(st.integers(0, f.slot_count - 1), min_size=f.slot_count,
                               max_size=f.slot_count))
        sets[f.name] = sorted({tuple(s for s in range(f.slot_count) if labels[s] == label)
                               for label in set(labels)})
    return SlabIndex(factors, sets)


def _stamps(offset: int):
    """Timestamps on, just before and just after local hour, half-hour and
    day edges, plus arbitrary ones."""
    edge = st.builds(lambda day, hour, half: day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
                     + half * 1800 - offset, st.integers(1, 30_000), st.integers(0, 23),
                     st.integers(0, 1))
    near = st.builds(lambda t, d: t + d, edge, st.sampled_from([-1, 0, 1]))
    return st.one_of(near, st.integers(1, 2_000_000_000))


@given(index=cell_indexes(), data=st.data())
def test_cells_match_string_oracle(index, data):
    timestamps = data.draw(st.lists(_stamps(index.factors[0].utc_offset), min_size=1,
                                    max_size=40))
    cells = index.cells(np.array(timestamps, dtype=np.int64))
    assert cells.tolist() == [orc.flat_cell(index, ts) for ts in timestamps]
    ids = orc.cell_ids(index)
    assert [ids[c] for c in cells.tolist()] == [orc.slab_id(index, ts) for ts in timestamps]


def test_index_rejects_non_partition():
    sets = {"hour": [range(0, 23)]}  # missing slot 23
    with pytest.raises(DataError, match="partition"):
        SlabIndex([hour_factor()], sets)


def test_profiles_conserve_counts(tiny_log):
    index = _fig_index()
    users, pois = all_slab_profiles(tiny_log, index)
    columns = tiny_log.columns
    assert users.shape == (len(columns.users), math.prod(index.grid_shape()))
    assert users[columns.users.index("ua")].sum() == len(tiny_log.rows("ua"))
    assert pois[columns.pois.index("p1")].sum() == 2
    assert users.sum() == pois.sum() == len(tiny_log)


def test_profile_unknown_entity(tiny_log):
    """A user known only from the social graph has no active cell."""
    log = CheckInLog.from_checkins(tiny_log.checkins, [("nobody", "ua")])
    users, _ = all_slab_profiles(log, _fig_index())
    assert not users[log.columns.users.index("nobody")].any()


def test_all_profiles_match_entity_profiles(tiny_log):
    index = _fig_index()
    users, pois = all_slab_profiles(tiny_log, index)
    want_users, want_pois = orc.slab_profiles(tiny_log, index)
    columns = tiny_log.columns
    for u, row in zip(columns.users, users):
        assert orc.cell_profile(index, row) == want_users.get(u, {})
    for p, row in zip(columns.pois, pois):
        assert orc.cell_profile(index, row) == want_pois[p]


def test_index_json_roundtrip():
    index = _fig_index()
    text = index.to_json()
    restored = SlabIndex.from_json(text)
    assert restored.grid_shape() == index.grid_shape()
    assert restored.checksum == index.checksum
    for f in index.factors:
        assert restored.slab_sets[f.name] == index.slab_sets[f.name]
    stamps = np.arange(1, 3 * 86400 * 7, 1799)
    assert restored.cells(stamps).tolist() == index.cells(stamps).tolist()


@pytest.mark.parametrize("factor", [
    TemporalFactorSpec("halfhour", 2, lambda ts: (ts % SECONDS_PER_HOUR) // 1800,
                       containment_rank=0),
    TemporalFactorSpec("hour", 24, lambda ts: (ts % SECONDS_PER_DAY) // SECONDS_PER_HOUR,
                       containment_rank=0),
], ids=["unknown-name", "other-rank"])
def test_index_json_refuses_a_factor_it_cannot_read_back(factor):
    """Only factors ``from_json`` rebuilds (same name, slot count and rank)
    are written; anything else is refused at write time."""
    others = [day_factor()] if factor.name == "hour" else [hour_factor()]
    index = SlabIndex([factor] + others, {
        f.name: [(s,) for s in range(f.slot_count)] for f in [factor] + others})
    with pytest.raises(ConfigError, match=factor.name):
        index.to_json()


def test_index_json_tamper_detected():
    index = _fig_index()
    payload = json.loads(index.to_json())
    payload["slabs"]["day"][0] = [1]
    with pytest.raises(DataError, match="checksum"):
        SlabIndex.from_json(json.dumps(payload))


def test_similarity_csv_header():
    sim = np.array([[1.0, 0.5], [0.5, 1.0]])
    text = similarity_csv(_full_matrix(sim))
    lines = text.splitlines()
    assert lines[0] == "factor,slot_a,slot_b,similarity,count,imputed"
    assert len(lines) == 5
