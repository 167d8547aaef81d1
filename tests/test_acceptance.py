"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria that need the real public corpora are skipped unless the
dump paths are supplied via MATIREC_BRIGHTKITE_CHECKINS / _SOCIAL.
"""

import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from corpus import planted_corpus, recovery_instance, stamp, timesplit_corpus, total_variation
from oracles import (DictParams, as_dicts, chain_from_joint, e_step, joint_prob, m_step,
                     oracle_joint, oracle_m_step, oracle_metrics, oracle_rank1_completion,
                     oracle_responsibilities, poi_act)

from matirec.config import HybridConfig, UnivariateConfig, load_config
from matirec.evaluation import evaluate, metrics_at_n, split_exclude, tune_sweep
from matirec.ingest import CheckIn, CheckInLog, dataset_stats, parse_checkins, parse_social
from matirec.mati import ChainLayout, JointStack, run_em
from matirec.pipeline import MatiRecommender, train_models
from matirec.slabs import (SlabIndex, SlotSimilarityMatrix, TemporalFactorSpec, complete_matrix,
                           day_factor, hac_complete_linkage, hour_factor)
from matirec.univariate import effective_user_act, m_avg_recommend


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


def _planted_config() -> "load_config":
    cfg = load_config()
    cfg.sampling.m_min = 20
    cfg.sampling.n_percent = 10
    cfg.usg.alpha, cfg.usg.beta = 0.2, 0.3
    cfg.hybrid = HybridConfig(0.05, 0.95)
    return cfg


@pytest.fixture(scope="module")
def planted_run():
    """500-user planted corpus: split, trained models, timing."""
    log = planted_corpus(n_users=500, seed=2024)
    cfg = _planted_config()
    started = time.monotonic()
    split = split_exclude(log, 0.3, seed=11, test_fraction=0.2)
    models = train_models(split.train_log, cfg)
    report = evaluate([models.get("ubcf"), models.get("usg"), models.get("mati"),
                       models.get("hybrid")], split, ns=(5, 10, 20))
    elapsed = time.monotonic() - started
    return log, cfg, split, models, report, elapsed


def test_criterion_1_em_recovery():
    with criterion(1, "EM correctness on synthetic corpus"):
        started = time.monotonic()
        log, index, truth, pairs = recovery_instance(
            n_users=50, n_pois=100, pois_per_user=3, visits_per_pair=8000, seed=77)
        params, report = run_em(log, index, np.ones(len(pairs)))
        elapsed = time.monotonic() - started
        trace = report.log_likelihood
        for prev, cur in zip(trace, trace[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))
        assert report.converged and report.iterations < 200
        worst = 0.0
        tables = as_dicts(params).pair_tables
        for pair in pairs:
            est, want = tables[pair], truth[pair]
            worst = max(worst, total_variation(est[0], want[0]))
            for di in range(index.grid_shape()[0]):
                worst = max(worst, total_variation(est[1][di], want[1][di]))
        assert worst < 0.05, f"worst conditional-table TV {worst:.4f}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "brute-force oracle equivalence"):
        rng = np.random.default_rng(314)
        for _ in range(100):
            n_users = int(rng.integers(1, 6))
            n_pois = int(rng.integers(1, 7))
            shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            pairs = [(f"u{i}", f"l{j}") for i in range(n_users) for j in range(n_pois)]
            tables = {}
            pr_nu = {}
            for p in pairs:
                joint = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
                tables[p] = chain_from_joint(joint)
                pr_nu[p] = float(rng.uniform(0.01, 1.0))
            params = DictParams(layout=ChainLayout(("day", "hour"), shape),
                                pr_nu=pr_nu, pair_tables=tables)
            resp = e_step(params, pairs)
            evidence = {p: rng.integers(0, 5, size=shape).astype(float)
                        for p in pairs if rng.random() < 0.5}
            updated = m_step(resp, evidence, gamma=1.0)
            for p in pairs:
                want_resp = oracle_responsibilities(pr_nu[p], tables[p])
                assert np.allclose(resp[p], want_resp, rtol=1e-12, atol=1e-15)
                want_tables = oracle_m_step(resp[p], evidence.get(p), 1.0)
                for mine, want in zip(updated[p], want_tables):
                    assert np.allclose(mine, want, rtol=1e-12, atol=1e-15)
                for di in range(shape[0]):
                    for hi in range(shape[1]):
                        mine = math.exp(joint_prob(*p, (di, hi), params))
                        want = oracle_joint(pr_nu[p], tables[p], (di, hi))
                        assert math.isclose(mine, want, rel_tol=1e-12, abs_tol=1e-300)


def _random_full_matrix(rng, n):
    sim = rng.uniform(0, 1, size=(n, n))
    sim = (sim + sim.T) / 2
    np.fill_diagonal(sim, 1.0)
    factor = TemporalFactorSpec(f"r{n}", n, lambda ts: 0, containment_rank=1)
    return SlotSimilarityMatrix(factor, sim, np.zeros((n, n), dtype=int),
                                np.ones((n, n), dtype=bool), np.zeros((n, n), dtype=bool))


def test_criterion_3_slab_pipeline():
    with criterion(3, "slab pipeline invariants"):
        rng = np.random.default_rng(99)
        # Complete-linkage guarantee on 100 random completed matrices.
        for _ in range(100):
            n = int(rng.integers(4, 25))
            matrix = _random_full_matrix(rng, n)
            threshold = float(rng.uniform(0.2, 0.95))
            slabs = hac_complete_linkage(matrix, threshold)
            assert sorted(s for slab in slabs for s in slab) == list(range(n))
            for slab in slabs:
                members = sorted(slab)
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        assert matrix.sim[a, b] >= threshold

        # Multi-aspect slabs partition 10,000 random timestamps uniquely.
        hour_slots = [[h] for h in range(21)] + [[21, 22, 23]]
        day_slots = [[0], [1, 3], [2], [4], [5, 6]]
        index = SlabIndex([hour_factor(), day_factor()], {"hour": hour_slots, "day": day_slots})
        hf, df = hour_factor(), day_factor()
        timestamps = rng.integers(1, 2_000_000_000, size=10_000)
        cells = index.cells(timestamps)
        assert cells.shape == timestamps.shape
        # Grid cells in C order, coarsest factor (day) first.
        grid = [(day, hour) for day in index.slab_sets["day"] for hour in index.slab_sets["hour"]]
        for ts, cell in zip(timestamps.tolist(), cells.tolist()):
            matches = [i for i, (day, hour) in enumerate(grid)
                       if hf.slot_of(ts) in hour and df.slot_of(ts) in day]
            assert matches == [cell]

        # Rank-1 hidden-cell recovery within 1e-6, checked against the
        # analytic pivot formula.
        u = rng.uniform(0.3, 0.9, size=6)
        sim = np.outer(u, u)
        observed = np.ones((6, 6), dtype=bool)
        observed[2, 5] = observed[5, 2] = False
        factor = TemporalFactorSpec("r1", 6, lambda ts: 0, containment_rank=1)
        matrix = SlotSimilarityMatrix(factor, np.where(observed, sim, np.nan),
                                      np.zeros((6, 6), dtype=int), observed,
                                      np.zeros((6, 6), dtype=bool))
        out = complete_matrix(matrix, rank=1, reg=0.0, iters=500, tol=1e-14)
        assert abs(out.sim[2, 5] - u[2] * u[5]) < 1e-6
        assert abs(out.sim[2, 5] - oracle_rank1_completion(sim, (2, 5))) < 1e-6

        # Rank-2, 20% hidden cells: RMSE below 0.05.
        angles = rng.uniform(0.0, math.pi / 2, size=24)
        factors = np.column_stack([np.cos(angles), np.sin(angles)])
        sim2 = factors @ factors.T
        observed = np.ones((24, 24), dtype=bool)
        pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
        for k in rng.choice(len(pairs), size=int(0.2 * len(pairs)), replace=False):
            i, j = pairs[k]
            observed[i, j] = observed[j, i] = False
        factor24 = TemporalFactorSpec("r2", 24, lambda ts: 0, containment_rank=1)
        matrix2 = SlotSimilarityMatrix(factor24, np.where(observed, sim2, np.nan),
                                       np.zeros((24, 24), dtype=int), observed,
                                       np.zeros((24, 24), dtype=bool))
        out2 = complete_matrix(matrix2, rank=2, reg=1e-9, iters=500, tol=1e-13)
        hidden = ~observed
        rmse = float(np.sqrt(np.mean((out2.sim[hidden] - sim2[hidden]) ** 2)))
        assert rmse < 0.05, f"rank-2 RMSE {rmse:.4f}"


def test_criterion_4_univariate_arithmetic():
    with criterion(4, "univariate worked values"):
        sat, mon = stamp(0, 5, 12), stamp(0, 0, 12)

        def visits(spec):
            return CheckInLog.from_checkins([CheckIn(u, p, (sat if we else mon) + i, 0.0, 0.0)
                                             for i, (u, p, we) in enumerate(spec)])

        # POI act margins.
        assert poi_act("p", visits([("a", "p", False)] * 3 + [("a", "p", True)])).act == 0.5
        assert poi_act("p", visits([("a", "p", True)] * 2)).act == -1.0
        assert poi_act("p", visits([("a", "p", True), ("a", "p", False)])).act == 0.0

        # Margin shift worked example: weekday share 0.75, shift 0.5 -> 0.25.
        log = visits([("u", "p", False)] * 3 + [("u", "p", True), ("u", "q", False)])
        profile = effective_user_act("u", log, UnivariateConfig(), np.array([1.0, 1.0]))
        assert profile.pr_day[0] == 0.25  # POI "p"; tolerance zero

        # Quota arithmetic: avg_day 0.3, lam 0.5, xi 0.1, N 10 -> 8/1/1.
        cfg = UnivariateConfig(lam=0.5, xi=0.1)
        fake = type("P", (), {"avg_day": 0.3, "avg_end": -0.35})()
        acts = np.array([0.8] * 12 + [-0.8] * 5 + [0.0] * 3)
        chosen = acts[m_avg_recommend(acts, fake, cfg, 10)]
        assert len(chosen) == 10
        assert (chosen > 0).sum() == 8
        assert (chosen < 0).sum() == 1
        assert (chosen == 0).sum() == 1

        # Bucket sizes always sum to N across a parameter sweep.
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            fake = type("P", (), {"avg_day": float(rng.uniform(-0.5, 0.5)),
                                  "avg_end": float(rng.uniform(-0.5, 0.5))})()
            xi = float(rng.choice([0.0, 0.1, 0.2]))
            cfg = UnivariateConfig(lam=0.5, xi=xi) if xi > 0 else UnivariateConfig(lam=0.5, xi=0.0)
            acts = np.array([-0.6, 0.0, 0.6] * n)
            got = m_avg_recommend(acts, fake, cfg, n)
            assert len(got) == n == len(set(got.tolist()))


def test_criterion_5_directional_comparison(planted_run):
    with criterion(5, "planted-corpus model ordering"):
        _, _, _, models, report, elapsed = planted_run
        f1 = {name: report.aggregates[name][5]["f1"] for name in ("ubcf", "usg", "mati", "hybrid")}
        assert f1["mati"] >= 1.2 * f1["ubcf"], f"mati {f1['mati']:.4f} vs ubcf {f1['ubcf']:.4f}"
        assert f1["hybrid"] >= max(f1["mati"], f1["usg"]) - 0.005
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_6_tuning_interior_optimum(planted_run):
    with criterion(6, "mixture-weight sweep shape"):
        log, cfg, _, _, _, _ = planted_run
        split = split_exclude(log, 0.3, seed=11, test_fraction=0.2, min_checkins=15)
        models = train_models(split.train_log, cfg)

        def build(value):
            return MatiRecommender(models.components, models.params, models.user_profiles,
                                   models.poi_profiles, value)

        grid = [round(0.1 * i, 1) for i in range(11)]
        result = tune_sweep("phi_t", grid, build, split)
        assert result.best_value not in (0.0, 1.0), f"optimum at boundary: {result.curve}"
        scores = dict(result.curve)
        assert scores[result.best_value] > scores[0.0]
        assert scores[result.best_value] > scores[1.0]


TIMESPLIT_SEEDS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def timesplit_runs():
    """Per seed of ``TIMESPLIT_SEEDS``: the timesplit corpus's split (x = 0.3,
    120 test users) and the models trained on it under the default config."""
    runs = {}
    for seed in TIMESPLIT_SEEDS:
        split = split_exclude(timesplit_corpus(seed), 0.3, seed, test_fraction=0.2)
        runs[seed] = split, train_models(split.train_log, load_config(env={}))
    return runs


def _f1_at_5(models, split) -> dict[str, float]:
    report = evaluate(models, split, ns=(5,))
    return {name: report.aggregates[name][5]["f1"] for name in report.aggregates}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="depth reduces to pr_nu / n_cells, so the trained tables never "
                          "reach a ranking (ROADMAP.md items 2 and 3)")
def test_timesplit_gate_mati_beats_usg(timesplit_runs):
    """Where time splits the POIs inside each taste group, MATI must beat
    USG by 0.04 in F1@5 on every seed.  The margin is fixed: never loosen it."""
    for seed, (split, models) in timesplit_runs.items():
        f1 = _f1_at_5([models.get("usg"), models.get("mati")], split)
        assert f1["mati"] >= f1["usg"] + 0.04, f"seed {seed}: {f1}"


def test_timesplit_guard_random_poi_joints_do_not_beat_usg(timesplit_runs):
    """With seeded random Dirichlet POI joints and global joint in place of
    EM's, MATI stays below USG + 0.02 in F1@5 on every seed, so the gate
    above can only pass on tables that carry the corpus's time signal."""
    for seed, (split, models) in timesplit_runs.items():
        rng = np.random.default_rng(seed)
        pois = models.params.poi_tables
        n_cells = pois.joints.shape[1]
        params = replace(models.params,
                         poi_tables=JointStack(pois.keys, rng.dirichlet(np.ones(n_cells),
                                                                        size=len(pois))),
                         global_table=rng.dirichlet(np.ones(n_cells)))
        mati = MatiRecommender(models.components, params, models.user_profiles,
                               models.poi_profiles, models.get("mati").phi_t)
        f1 = _f1_at_5([models.get("usg"), mati], split)
        assert f1["mati"] < f1["usg"] + 0.02, f"seed {seed}: {f1}"


def test_criterion_7_metrics_and_determinism(planted_run):
    with criterion(7, "metrics fuzz + deterministic reports"):
        rng = np.random.default_rng(2718)
        pois = [f"p{i}" for i in range(40)]
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            k = int(rng.integers(0, n + 1))
            recommended = list(rng.choice(pois, size=k, replace=False))
            excluded = set(rng.choice(pois, size=int(rng.integers(1, 12)), replace=False))
            assert metrics_at_n(recommended, excluded, n) == \
                oracle_metrics(recommended, excluded, n)

        # Identical seeds -> byte-identical reports (two full trainings).
        small = planted_corpus(n_users=120, seed=7)
        cfg = _planted_config()
        outputs = []
        for _ in range(2):
            split = split_exclude(small, 0.3, seed=5, test_fraction=0.25)
            models = train_models(split.train_log, cfg)
            report = evaluate([models.get("usg"), models.get("mati")], split,
                              ns=(5, 10), fingerprint="fixed")
            outputs.append((report.to_json(), report.rows_csv()))
        assert outputs[0] == outputs[1]

        # Failure rate is monotone in N for every model on the planted run.
        _, _, _, _, big_report, _ = planted_run
        for model, per_n in big_report.aggregates.items():
            rates = [per_n[n]["failure_rate"] for n in (5, 10, 20)]
            assert rates[0] >= rates[1] >= rates[2], (model, rates)


def test_criterion_8_stats_fidelity():
    with criterion(8, "dataset statistics"):
        # Toy fixtures against hand counts.
        log = CheckInLog.from_checkins([
            CheckIn("a", "p1", 100, 0.0, 0.0),
            CheckIn("a", "p2", 200, 0.0, 0.0),
            CheckIn("a", "p1", 300, 0.0, 0.0),
            CheckIn("b", "p3", 400, 0.0, 0.0),
        ], [("a", "b"), ("b", "c")])
        stats = dataset_stats(log)
        assert stats.n_users == 3           # a, b, and social-only c
        assert stats.n_pois == 3
        assert stats.n_checkins == 4
        assert stats.n_social_links == 2
        assert stats.cold_start_ratio == 1.0
        assert stats.avg_pois_per_user == (2 + 1 + 0) / 3
        assert stats.density == 3 / 9


BRIGHTKITE = os.environ.get("MATIREC_BRIGHTKITE_CHECKINS", "")
BRIGHTKITE_SOCIAL = os.environ.get("MATIREC_BRIGHTKITE_SOCIAL", "")


@pytest.mark.skipif(not BRIGHTKITE, reason="real corpus not downloaded")
def test_criterion_8_real_corpus_stats():
    with criterion(8, "real-corpus statistics (optional)"):
        log = parse_checkins(BRIGHTKITE, on_error="skip")
        if BRIGHTKITE_SOCIAL:
            log = log.with_social(parse_social(BRIGHTKITE_SOCIAL).edges)
        stats = dataset_stats(log)
        assert stats.n_users == 58_228
        assert stats.n_pois == 772_967
        assert stats.n_checkins == 4_491_143
        assert stats.density == pytest.approx(2.7e-5, rel=0.05)


@pytest.mark.skipif(not BRIGHTKITE, reason="real corpus not downloaded")
def test_criterion_6_real_corpus_sweep_smoke():
    with criterion(6, "real-corpus sweep pipeline (optional)"):
        log = parse_checkins(BRIGHTKITE, on_error="skip")
        cfg = load_config()
        split = split_exclude(log, 0.3, seed=1, test_fraction=0.001, min_checkins=15)
        models = train_models(split.train_log, cfg)

        def build(value):
            return MatiRecommender(models.components, models.params, models.user_profiles,
                                   models.poi_profiles, value)

        result = tune_sweep("phi_t", [0.0, 0.5, 0.7, 1.0], build, split)
        print(f"real-corpus best phi_t: {result.best_value} "
              f"(within one grid step of 0.7: {abs(result.best_value - 0.7) <= 0.3})")
