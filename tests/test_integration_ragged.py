"""End-to-end run on a deliberately messy corpus.

Single-visit users, POIs nobody revisits, social edges to users with no
check-ins, a non-zero UTC offset, and skip-mode parsing of partially broken
input must not crash any stage.
"""

import io

import numpy as np
import pytest

from corpus import stamp

from matirec.config import load_config
from matirec.evaluation import evaluate, split_exclude
from matirec.hybrid import HybridConfig
from matirec.ingest import CheckIn, CheckInLog, parse_checkins, serialize_log
from matirec.pipeline import train_models


@pytest.fixture(scope="module")
def ragged_log():
    rng = np.random.default_rng(55)
    checkins = []
    # A handful of healthy users.
    for i in range(15):
        u = f"ok{i}"
        for j in range(6):
            checkins.append(CheckIn(u, f"shared{j % 4}", stamp(j, int(rng.integers(0, 7)),
                                                               int(rng.integers(0, 24))),
                                    float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))))
            checkins.append(CheckIn(u, f"{u}_own{j}", stamp(j, 2, 10), 1.0 + j * 0.01, 2.0))
    # Single-visit users.
    for i in range(5):
        checkins.append(CheckIn(f"one{i}", "shared0", stamp(0, 5, 23), 0.0, 0.0))
    # A POI visited exactly once, far away.
    checkins.append(CheckIn("ok0", "lonely", stamp(1, 6, 3), 80.0, 170.0))
    edges = [("ok0", "ok1"), ("ok2", "ghost_user"), ("one0", "ok3")]
    return CheckInLog.from_checkins(checkins, edges)


def test_ragged_pipeline_runs(ragged_log):
    cfg = load_config()
    cfg.data.utc_offset_hours = 5
    cfg.sampling.m_min = 2
    cfg.sampling.n_percent = 50
    cfg.usg.alpha, cfg.usg.beta = 0.1, 0.1
    cfg.hybrid = HybridConfig(0.0, 1.0)
    split = split_exclude(ragged_log, 0.3, seed=3, test_fraction=0.5)
    models = train_models(split.train_log, cfg)
    report = evaluate([models.get(n) for n in
                       ("ubcf", "usg", "usgt", "ubcft", "mati", "hybrid")],
                      split, ns=(5,))
    for name, per_n in report.aggregates.items():
        for metric, value in per_n[5].items():
            assert 0.0 <= value <= 1.0, (name, metric, value)


def test_ragged_single_visit_user_recommendable(ragged_log):
    cfg = load_config()
    cfg.sampling.m_min = 2
    cfg.sampling.n_percent = 50
    models = train_models(ragged_log, cfg)
    for name in ("ubcf", "usg", "usgt", "ubcft", "mati", "hybrid"):
        items = models.get(name).recommend("one1", 5)
        assert len(items) <= 5
        assert "shared0" not in items  # already visited


def test_skip_mode_roundtrip(ragged_log):
    broken = serialize_log(ragged_log) + "garbage line\nu\t-5\t0\t0\tp\n"
    log = parse_checkins(io.StringIO(broken), on_error="skip")
    assert log.skipped_lines == 2
    assert len(log) == len(ragged_log)
