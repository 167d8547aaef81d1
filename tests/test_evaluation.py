import numpy as np
import pytest

from corpus import checkin_users, planted_corpus
from oracles import oracle_metrics

from matirec.errors import ConfigError, DataError
from matirec.evaluation import (EvalSplit, evaluate, failure_rate, metrics_at_n, split_exclude,
                                tune_sweep)
from matirec.ingest import CheckIn, CheckInLog


def _uniform_log(n_users=12, pois_per_user=10):
    checkins = []
    for i in range(n_users):
        u = f"u{i:02d}"
        for j in range(pois_per_user):
            checkins.append(CheckIn(u, f"{u}_p{j}", 1000 + j, 0.0, 0.0))
            checkins.append(CheckIn(u, f"shared{j}", 2000 + j, 0.0, 0.0))
    return CheckInLog.from_checkins(checkins)


def test_split_rounding_three_of_ten():
    log = _uniform_log()
    split = split_exclude(log, 0.3, seed=1, test_fraction=0.5)
    for user, hidden in split.excluded.items():
        assert len(hidden) == round(0.3 * 20)


def test_split_deterministic():
    log = _uniform_log()
    a = split_exclude(log, 0.3, seed=9)
    b = split_exclude(log, 0.3, seed=9)
    assert a.excluded == b.excluded
    assert a.train_log == b.train_log


def test_split_removes_only_test_users_view():
    log = _uniform_log()
    split = split_exclude(log, 0.3, seed=2, test_fraction=0.25)
    for user in split.test_users:
        train_pois = split.train_log.distinct_pois(user)
        assert not train_pois & split.excluded[user]
        assert split.retained[user] == train_pois
    untouched = [u for u in checkin_users(log) if u not in split.excluded]
    for u in untouched:
        assert split.train_log.distinct_pois(u) == log.distinct_pois(u)


def test_split_skips_single_poi_users():
    checkins = [CheckIn("rich", f"p{i}", 100 + i, 0.0, 0.0) for i in range(10)]
    checkins.append(CheckIn("poor", "p0", 50, 0.0, 0.0))
    split = split_exclude(CheckInLog.from_checkins(checkins), 0.3, seed=1, test_fraction=1.0)
    assert split.skipped_ineligible == 1
    assert split.test_users == ["rich"]


def test_split_bad_fraction():
    with pytest.raises(ConfigError):
        split_exclude(_uniform_log(), 1.5, seed=0)


def test_metrics_perfect_recovery():
    assert metrics_at_n(["a", "b"], {"a", "b"}, 2) == (1.0, 1.0, 1.0)


def test_metrics_zero_hits():
    assert metrics_at_n(["x", "y"], {"a"}, 2) == (0.0, 0.0, 0.0)


def test_metrics_harmonic_mean():
    # 1 hit at n=2 with 2 excluded: precision = recall = 0.5 -> f1 = 0.5.
    p, r, f1 = metrics_at_n(["a", "x"], {"a", "b"}, 2)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_metrics_match_brute_force_fuzz():
    rng = np.random.default_rng(8)
    pois = [f"p{i}" for i in range(30)]
    for _ in range(300):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(0, n + 1))
        recommended = list(rng.choice(pois, size=k, replace=False))
        excluded = set(rng.choice(pois, size=int(rng.integers(1, 10)), replace=False))
        assert metrics_at_n(recommended, excluded, n) == oracle_metrics(recommended, excluded, n)


def test_failure_rate_cases():
    assert failure_rate([1, 2, 3]) == 0.0
    assert failure_rate([0, 0]) == 1.0
    assert failure_rate([0, 1, 0, 2]) == 0.5
    with pytest.raises(DataError):
        failure_rate([])


class _FixedModel:
    """Recommends a fixed global ranking, ignoring the user."""

    def __init__(self, name, ranking):
        self.name = name
        self.ranking = ranking

    def recommend(self, user_id, n):
        return self.ranking[:n]


def _toy_split():
    checkins = [CheckIn("u1", f"p{i}", 100 + i, 0.0, 0.0) for i in range(4)]
    log = CheckInLog.from_checkins(checkins)
    return EvalSplit(train_log=log, excluded={"u1": frozenset({"e1", "e2"})},
                     retained={"u1": frozenset({"p0"})}, x=0.5, seed=0,
                     test_fraction=1.0, skipped_ineligible=0)


def test_evaluate_single_user_perfect():
    split = _toy_split()
    model = _FixedModel("fixed", ["e1", "e2"])
    report = evaluate([model], split, ns=(2,))
    metrics = report.aggregates["fixed"][2]
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["f1"] == 1.0
    assert metrics["failure_rate"] == 0.0


def test_evaluate_identical_models_identical_rows():
    split = _toy_split()
    a = _FixedModel("a", ["e1", "x"])
    b = _FixedModel("b", ["e1", "x"])
    report = evaluate([a, b], split, ns=(2,))
    assert report.aggregates["a"] == report.aggregates["b"]
    rows_a = [r for r in report.rows if r["model"] == "a"]
    rows_b = [r for r in report.rows if r["model"] == "b"]
    for ra, rb in zip(rows_a, rows_b):
        assert {k: v for k, v in ra.items() if k != "model"} == \
               {k: v for k, v in rb.items() if k != "model"}


def test_evaluate_f1_bounded_by_max_of_means():
    split = _toy_split()
    model = _FixedModel("m", ["e1", "x", "e2"])
    report = evaluate([model], split, ns=(1, 2, 3))
    for n in (1, 2, 3):
        m = report.aggregates["m"][n]
        assert 0.0 <= m["f1"] <= max(m["precision"], m["recall"]) + 1e-12
        assert m["precision"] <= 1.0 and m["recall"] <= 1.0


def test_evaluate_failure_rate_monotone_in_n():
    split = _toy_split()
    model = _FixedModel("m", ["x", "e1", "y", "e2"])
    report = evaluate([model], split, ns=(1, 2, 4))
    fr = [report.aggregates["m"][n]["failure_rate"] for n in (1, 2, 4)]
    assert fr[0] >= fr[1] >= fr[2]


def test_report_json_deterministic():
    split = _toy_split()
    model = _FixedModel("m", ["e1"])
    a = evaluate([model], split, ns=(1, 2), fingerprint="fp")
    b = evaluate([model], split, ns=(1, 2), fingerprint="fp")
    assert a.to_json() == b.to_json()
    assert a.rows_csv() == b.rows_csv()


def test_tune_sweep_single_point():
    split = _toy_split()
    result = tune_sweep("x", [0.4], lambda v: _FixedModel("m", ["e1"]), split, ("f1", 1))
    assert result.best_value == 0.4
    assert len(result.curve) == 1


def test_tune_sweep_tie_takes_smaller():
    split = _toy_split()
    result = tune_sweep("x", [0.2, 0.4, 0.8],
                        lambda v: _FixedModel("m", ["e1"]), split, ("f1", 1))
    assert result.best_value == 0.2


def test_tune_sweep_empty_grid():
    with pytest.raises(ConfigError):
        tune_sweep("x", [], lambda v: None, _toy_split())


def test_tune_population_min_checkins():
    log = planted_corpus(n_users=40, seed=3)
    split = split_exclude(log, 0.3, seed=4, test_fraction=0.5, min_checkins=15)
    for u in split.test_users:
        assert len(log.rows(u)) >= 15
