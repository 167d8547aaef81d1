import numpy as np
import pytest

from corpus import checkin_users, stamp
from oracles import (oracle_sampling_rounds, slot_pair_similarity, undersampled_pairs,
                     user_slot_vectors)

from matirec.errors import ConfigError
from matirec.ingest import CheckIn, CheckInLog
from matirec.sampling import SamplingState, collect_until, sample_round, stratify_users
from matirec.slabs import TemporalFactorSpec, aggregate_similarity, coverage_csv


def _log_with_counts(counts):
    """counts: user -> number of distinct POIs (one visit each)."""
    checkins = []
    for u, n in counts.items():
        for i in range(n):
            checkins.append(CheckIn(u, f"{u}_p{i}", 1000 + i, 0.0, 0.0))
    return CheckInLog.from_checkins(checkins)


def _ids(log, users):
    """The id set of an array of user ints."""
    return {log.columns.users[u] for u in users.tolist()}


def _fresh_state(log, seed):
    return SamplingState(seed, np.zeros(len(log.columns.users), dtype=bool))


def test_stratify_thresholds():
    log = _log_with_counts({"p3": 3, "s7": 7, "a15": 15, "a20": 20})
    passive, semi_active, active = stratify_users(log, (5, 15))
    assert _ids(log, passive) == {"p3"}
    assert _ids(log, semi_active) == {"s7"}
    assert _ids(log, active) == {"a15", "a20"}  # boundary 15 is active (>= high)


def test_stratify_all_identical():
    log = _log_with_counts({f"u{i}": 6 for i in range(5)})
    passive, semi_active, active = stratify_users(log, (5, 15))
    assert not len(passive) and not len(active)
    assert len(semi_active) == 5


def test_stratify_bad_thresholds():
    with pytest.raises(ConfigError):
        stratify_users(_log_with_counts({"u": 1}), (15, 5))


def _hundred_per_stratum():
    counts = {}
    counts.update({f"pa{i}": 2 for i in range(100)})
    counts.update({f"se{i}": 8 for i in range(100)})
    counts.update({f"ac{i}": 20 for i in range(100)})
    return _log_with_counts(counts)


def test_sample_round_draws_ten_percent_each():
    log = _hundred_per_stratum()
    strata = stratify_users(log, (5, 15))
    drawn = sample_round(strata, _fresh_state(log, 3), 10)
    assert len(drawn) == 30
    for stratum in strata:
        assert len(np.intersect1d(drawn, stratum)) == 10


def test_sample_round_never_repeats():
    log = _hundred_per_stratum()
    strata = stratify_users(log, (5, 15))
    state = _fresh_state(log, 3)
    first = sample_round(strata, state, 10)
    second = sample_round(strata, state, 10)
    assert not len(np.intersect1d(first, second))
    assert state.drawn.tolist() == sorted(first.tolist() + second.tolist())


def test_sample_round_deterministic():
    log = _hundred_per_stratum()
    strata = stratify_users(log, (5, 15))
    a = sample_round(strata, _fresh_state(log, 9), 10)
    b = sample_round(strata, _fresh_state(log, 9), 10)
    assert a.tolist() == b.tolist()


def test_sample_round_exhaustion_yields_empty():
    log = _log_with_counts({"u1": 2, "u2": 8})
    strata = stratify_users(log, (5, 15))
    state = _fresh_state(log, 0)
    assert _ids(log, sample_round(strata, state, 100)) == {"u1", "u2"}
    assert not len(sample_round(strata, state, 100))


def test_collect_until_full_coverage_first_round():
    # Every user visits the same POI in both slots of a 2-slot factor.
    checkins = []
    for i in range(4):
        u = f"u{i}"
        checkins.append(CheckIn(u, "p1", stamp(0, 0, 9), 0.0, 0.0))
        checkins.append(CheckIn(u, "p1", stamp(0, 0, 10), 0.0, 0.0))
    log = CheckInLog.from_checkins(checkins)
    two_slot = TemporalFactorSpec("two", 2, lambda ts: ((ts % 86400) // 3600 >= 10) * 1,
                                  containment_rank=1)
    samples, _, state = collect_until(log, [two_slot], m_min=4, n_percent=100, seed=1)
    assert state.round == 1
    assert samples["two"].count[0, 1] == 4
    assert not undersampled_pairs(coverage_csv([aggregate_similarity(samples["two"])]), 4)


def test_collect_until_inactive_slot_flagged():

    factor = TemporalFactorSpec("tri", 3, lambda ts: np.minimum((ts % 86400) // 28800, 2),
                                containment_rank=1)
    checkins = [CheckIn("u1", "p1", stamp(0, 0, 1), 0.0, 0.0),
                CheckIn("u1", "p1", stamp(0, 0, 9), 0.0, 0.0)]
    log = CheckInLog.from_checkins(checkins)
    samples, _, _ = collect_until(log, [factor], m_min=1, n_percent=100, seed=1)
    under = undersampled_pairs(coverage_csv([aggregate_similarity(samples["tri"])]), 1)
    assert under == [("tri", 0, 2), ("tri", 1, 2)]
    assert samples["tri"].count[0, 1] == 1


def test_coverage_csv_shape():

    factor = TemporalFactorSpec("two", 2, lambda ts: 0, containment_rank=1)
    log = CheckInLog.from_checkins([CheckIn("u", "p", 100, 0.0, 0.0)])
    samples, _, _ = collect_until(log, [factor], m_min=1, n_percent=100, max_rounds=2, seed=0)
    text = coverage_csv([aggregate_similarity(samples["two"])])
    assert text.splitlines()[0] == "factor,slot_a,slot_b,sample_count"
    assert len(text.splitlines()) == 2


def test_collect_until_matches_independent_simulation():
    """200-user synthetic run replayed by a scripted reference loop."""
    rng = np.random.default_rng(5)
    checkins = []
    for i in range(200):
        u = f"u{i:03d}"
        n_pois = int(rng.integers(1, 25))
        for j in range(n_pois):
            hour = int(rng.integers(0, 4))
            checkins.append(CheckIn(u, f"{u}p{j}", stamp(0, 0, hour), 0.0, 0.0))
            if rng.random() < 0.6:
                checkins.append(CheckIn(u, f"{u}p{j}", stamp(0, 1, int(rng.integers(0, 4))),
                                        0.0, 0.0))
    log = CheckInLog.from_checkins(checkins)

    factor = TemporalFactorSpec("quad", 4, lambda ts: (ts % 86400) // 3600 % 4,
                                containment_rank=1)
    m_min, n_percent, seed = 10, 5.0, 123
    samples, strata, state = collect_until(log, [factor], m_min=m_min,
                                           n_percent=n_percent, seed=seed)

    users_by_stratum = {name: sorted(_ids(log, members))
                        for name, members in zip(("passive", "semi_active", "active"), strata)}
    activity = {}
    for u in checkin_users(log):
        vectors = user_slot_vectors([log.checkins[i] for i in log.rows(u)], factor)
        pairs = {}
        slots = sorted(vectors)
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                value = slot_pair_similarity(vectors[a], vectors[b])
                if value is not None:
                    pairs[(a, b)] = value
        activity[u] = pairs
    all_pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    rounds, drawn, counts = oracle_sampling_rounds(users_by_stratum, activity, all_pairs,
                                                   m_min, n_percent, 100, seed)
    assert state.round == rounds
    assert _ids(log, state.drawn) == drawn
    for (a, b), c in counts.items():
        assert samples["quad"].count[a, b] == c
