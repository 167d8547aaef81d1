import numpy as np
import pytest

from corpus import stamp
from oracles import oracle_sampling_rounds, undersampled_pairs

from matirec.errors import ConfigError
from matirec.ingest import CheckIn, CheckInLog
from matirec.sampling import (SamplingState, collect_until, coverage_csv, sample_round,
                              stratify_users)
from matirec.slabs import TemporalFactorSpec, slot_pair_similarity, user_slot_vectors


def _log_with_counts(counts):
    """counts: user -> number of distinct POIs (one visit each)."""
    checkins = []
    for u, n in counts.items():
        for i in range(n):
            checkins.append(CheckIn(u, f"{u}_p{i}", 1000 + i, 0.0, 0.0))
    return CheckInLog(checkins)


def test_stratify_thresholds():
    log = _log_with_counts({"p3": 3, "s7": 7, "a15": 15, "a20": 20})
    strata = stratify_users(log, (5, 15))
    assert strata.passive == {"p3"}
    assert strata.semi_active == {"s7"}
    assert strata.active == {"a15", "a20"}  # boundary 15 is active (>= high)


def test_stratify_all_identical():
    log = _log_with_counts({f"u{i}": 6 for i in range(5)})
    strata = stratify_users(log, (5, 15))
    assert not strata.passive and not strata.active
    assert len(strata.semi_active) == 5


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
    strata = stratify_users(_hundred_per_stratum(), (5, 15))
    state = SamplingState(rng_seed=3)
    drawn = sample_round(strata, state, 10)
    assert len(drawn) == 30
    for stratum in (strata.passive, strata.semi_active, strata.active):
        assert len(drawn & stratum) == 10


def test_sample_round_never_repeats():
    strata = stratify_users(_hundred_per_stratum(), (5, 15))
    state = SamplingState(rng_seed=3)
    first = sample_round(strata, state, 10)
    second = sample_round(strata, state, 10)
    assert not first & second
    assert state.drawn == first | second


def test_sample_round_deterministic():
    strata = stratify_users(_hundred_per_stratum(), (5, 15))
    a = sample_round(strata, SamplingState(rng_seed=9), 10)
    b = sample_round(strata, SamplingState(rng_seed=9), 10)
    assert a == b


def test_sample_round_exhaustion_yields_empty():
    log = _log_with_counts({"u1": 2, "u2": 8})
    strata = stratify_users(log, (5, 15))
    state = SamplingState(rng_seed=0)
    assert sample_round(strata, state, 100) == {"u1", "u2"}
    assert sample_round(strata, state, 100) == frozenset()


def test_collect_until_full_coverage_first_round():
    # Every user visits the same POI in both slots of a 2-slot factor.
    checkins = []
    for i in range(4):
        u = f"u{i}"
        checkins.append(CheckIn(u, "p1", stamp(0, 0, 9), 0.0, 0.0))
        checkins.append(CheckIn(u, "p1", stamp(0, 0, 10), 0.0, 0.0))
    log = CheckInLog(checkins)
    two_slot = TemporalFactorSpec("two", 2, lambda ts: 0 if (ts % 86400) // 3600 < 10 else 1,
                                  containment_rank=1)
    samples, coverage, state = collect_until(log, [two_slot], m_min=4, n_percent=100, seed=1)
    assert state.round == 1
    assert samples["two"].count(0, 1) == 4
    assert not undersampled_pairs(coverage, 4)


def test_collect_until_inactive_slot_flagged():

    factor = TemporalFactorSpec("tri", 3, lambda ts: min((ts % 86400) // 28800, 2),
                                containment_rank=1)
    checkins = [CheckIn("u1", "p1", stamp(0, 0, 1), 0.0, 0.0),
                CheckIn("u1", "p1", stamp(0, 0, 9), 0.0, 0.0)]
    log = CheckInLog(checkins)
    samples, coverage, _ = collect_until(log, [factor], m_min=1, n_percent=100, seed=1)
    under = undersampled_pairs(coverage, 1)
    assert {(r.slot_a, r.slot_b) for r in under} == {(0, 2), (1, 2)}
    assert samples["tri"].count(0, 1) == 1


def test_coverage_csv_shape():

    factor = TemporalFactorSpec("two", 2, lambda ts: 0, containment_rank=1)
    log = CheckInLog([CheckIn("u", "p", 100, 0.0, 0.0)])
    _, coverage, _ = collect_until(log, [factor], m_min=1, n_percent=100, max_rounds=2, seed=0)
    text = coverage_csv(coverage)
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
    log = CheckInLog(checkins)

    factor = TemporalFactorSpec("quad", 4, lambda ts: (ts % 86400) // 3600 % 4,
                                containment_rank=1)
    m_min, n_percent, seed = 10, 5.0, 123
    samples, coverage, state = collect_until(log, [factor], m_min=m_min,
                                             n_percent=n_percent, seed=seed)

    strata = stratify_users(log, (5, 15))
    users_by_stratum = {"passive": sorted(strata.passive),
                        "semi_active": sorted(strata.semi_active),
                        "active": sorted(strata.active)}
    activity = {}
    for u in log.by_user:
        vectors = user_slot_vectors(log.by_user[u], factor)
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
    assert state.drawn == drawn
    for (a, b), c in counts.items():
        assert samples["quad"].count(a, b) == c
