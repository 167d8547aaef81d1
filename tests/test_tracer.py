"""The benchmark's span tracer (``clibench/spans.py``) against the library.

The tracer wraps library functions, methods and CLI commands by name and
reads counts from what they return, so a rename in the library breaks the
benchmark's traced runs.  This runs traced CLI commands in-process on a
small planted corpus and checks the counts read, and that ``uninstall`` puts
every wrapped attribute back.  The corpus's sampling stops before it has
drawn every user, so a count of users drawn differs from the user count.
"""

import importlib.util
import math
import sys
from pathlib import Path

from corpus import checkin_users, planted_corpus

from matirec import cli, evaluation, ingest, pipeline
from matirec.config import SEED_SAMPLING, load_config
from matirec.sampling import collect_until
from matirec.slabs import SlabIndex, build_factor

SPANS = Path(__file__).resolve().parents[1] / "clibench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    spans = sys.modules.get(spec.name)
    if spans is None:
        spans = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = spans  # dataclasses look their module up there
        spec.loader.exec_module(spans)
    return spans


def _namespaces() -> list:
    """Every namespace the tracer may wrap an attribute in: the command table,
    the modules it imports and the classes of the pipeline."""
    classes = [vars(obj) for obj in vars(pipeline).values()
               if isinstance(obj, type) and obj.__module__ == pipeline.__name__]
    return [cli.COMMANDS, vars(cli), vars(evaluation), vars(ingest), vars(pipeline), *classes]


def test_traced_commands_count_pairs_and_uninstall_restores(tmp_path):
    log = planted_corpus(n_users=80, seed=3)
    (tmp_path / "checkins.tsv").write_text(ingest.serialize_log(log), encoding="utf-8")
    (tmp_path / "social.tsv").write_text(ingest.serialize_social(log), encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"[data]\ncheckins = {tmp_path / 'checkins.tsv'}\n"
                      f"social = {tmp_path / 'social.tsv'}\n"
                      "[sampling]\nm_min = 10\nn_percent = 25\n", encoding="utf-8")
    out = tmp_path / "out"
    commands = [["ingest", "--out", str(out)],
                ["slabs", "--out", str(out)],
                ["train", "--slabs", str(out / "slab_index.json"), "--out", str(out)],
                ["recommend", "--slabs", str(out / "slab_index.json"),
                 "--params", str(out / "mati_params.json"), "--n", "5",
                 "--user", checkin_users(log)[0], "--out", str(out)]]

    before = [(space, dict(space)) for space in _namespaces()]
    run_em = pipeline.run_em
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        assert pipeline.run_em is not run_em
        codes = [cli.main(["--config", str(config), *argv]) for argv in commands]
    finally:
        tracer.uninstall()

    assert codes == [0, 0, 0, 0]
    assert tracer.counts["mati.pairs"] == len(log.columns.pairs)
    assert tracer.counts["mati.params_bytes"] == (out / "mati_params.json").stat().st_size
    assert {"cmd.recommend", "mati.em", "mati.params_read"} <= {s.name for s in tracer.spans}

    cfg = load_config(config)
    factors = [build_factor(name, cfg.utc_offset_seconds()) for name in cfg.factors.factor_names()]
    _, _, state = collect_until(
        log, factors, m_min=cfg.sampling.m_min, n_percent=cfg.sampling.n_percent,
        max_rounds=cfg.sampling.max_rounds, seed=cfg.seed * 1000 + SEED_SAMPLING,
        thresholds=(cfg.sampling.strata_low, cfg.sampling.strata_high),
        binary=cfg.factors.binary_vectors)
    assert 0 < len(state.drawn) < len(checkin_users(log))
    assert tracer.counts["sampling.rounds"] == state.round
    assert tracer.counts["sampling.users_drawn"] == len(state.drawn)
    index = SlabIndex.from_json((out / "slab_index.json").read_text(encoding="utf-8"))
    assert tracer.counts["slabs.grid_cells"] == math.prod(index.grid_shape())
    for space, saved in before:
        now = dict(space)
        assert now.keys() == saved.keys()
        assert all(now[name] is value for name, value in saved.items())
