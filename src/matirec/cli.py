"""Command-line front end tying the pipeline stages together.

Subcommands: ingest, stats, slabs, train, recommend, evaluate, tune.  Every
artifact carries the run fingerprint (config hash + seed + input checksums).
Exit codes: 0 ok, 2 config error, 3 data error, 4 invariant breach.

A command loads only the layers it runs: this module imports ``config``,
``errors`` and ``ingest``, and the commands import the model layers.  The
four model calls that ``clibench/spans.py`` traces here by name are module
functions that import their layer on the first call.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
from pathlib import Path

from . import ingest as ing
from .config import MODELS, RunConfig, check_seed, file_checksum, fingerprint, load_config
from .errors import ConfigError, DataError, MatirecError


def _on_first_call(module: str, name: str):
    """A stand-in for ``module.name`` that imports ``module`` when first called."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)
    return call


build_slab_index = _on_first_call(".pipeline", "build_slab_index")
train_models = _on_first_call(".pipeline", "train_models")
params_to_json = _on_first_call(".mati", "params_to_json")
params_from_json = _on_first_call(".mati", "params_from_json")


def _load_log(cfg: RunConfig) -> ing.CheckInLog:
    if not cfg.data.checkins:
        raise ConfigError("data.checkins is required")
    fmt = ing.ColumnFormat.parse(cfg.data.column_format)
    log = ing.parse_checkins(cfg.data.checkins, fmt, on_error=cfg.data.on_error)
    if cfg.data.social:
        social = ing.parse_social(cfg.data.social, on_error=cfg.data.on_error)
        log = log.with_social(social.edges)
    return log


def _read_index(path: str):
    from .slabs import SlabIndex
    with ing.open_input(path) as fh:
        return SlabIndex.from_json(fh.read())


def _fingerprint(cfg: RunConfig) -> str:
    sums = {}
    for name in ("checkins", "social"):
        path = getattr(cfg.data, name)
        if path and Path(path).exists():
            sums[name] = file_checksum(path)
    return fingerprint(cfg, sums)


WRITE_SLICE = 1 << 20  # characters encoded per write


def _write(out_dir: Path, name: str, text) -> Path:
    """Write ``text`` as UTF-8 with ``\\n`` line ends on every platform, at
    least ``WRITE_SLICE`` characters at a time (or the rest), so no bytes copy
    of the whole text is held: a string is cut into slices of that size, and
    the pieces of a ``TextPieces`` are joined into groups."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    pieces = ((text[begin:begin + WRITE_SLICE] for begin in range(0, len(text), WRITE_SLICE))
              if isinstance(text, str) else text.pieces)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        group, size = [], 0
        for piece in pieces:
            group.append(piece)
            size += len(piece)
            if size >= WRITE_SLICE:
                out.write("".join(group))
                group, size = [], 0
        out.write("".join(group))
    return path


def cmd_ingest(cfg: RunConfig, args) -> int:
    log = _load_log(cfg)
    out = Path(args.out)
    fp = _fingerprint(cfg)
    stamp = f"# fingerprint={fp}\n"
    _write(out, "checkins.tsv", stamp + ing.serialize_log(log))
    _write(out, "social.tsv", stamp + ing.serialize_social(log))
    summary = {
        "fingerprint": fp,
        "checkins": len(log.checkins),
        "social_edges": len(log.social_edges),
        "skipped_lines": log.skipped_lines,
    }
    _write(out, "ingest.json", json.dumps(summary, sort_keys=True, indent=1))
    print(f"ingested {len(log.checkins)} check-ins, {len(log.social_edges)} edges "
          f"({log.skipped_lines} lines skipped)")
    return 0


def cmd_stats(cfg: RunConfig, args) -> int:
    log = _load_log(cfg)
    stats = ing.dataset_stats(log)
    fp = _fingerprint(cfg)
    text = f"fingerprint={fp}\n" + stats.report()
    if args.out:
        out = Path(args.out)
        stamp = f"# fingerprint={fp}\n"
        _write(out, "stats.txt", text)
        from .univariate import act_histogram, act_observations, histogram_csv
        user_acts, poi_acts = act_observations(log, cfg.utc_offset_seconds())
        _write(out, "user_act_histogram.csv", stamp + histogram_csv(act_histogram(user_acts)))
        _write(out, "poi_act_histogram.csv", stamp + histogram_csv(act_histogram(poi_acts)))
    print(text, end="")
    return 0


def cmd_slabs(cfg: RunConfig, args) -> int:
    from .slabs import coverage_csv, similarity_csv
    log = _load_log(cfg)
    artifacts = build_slab_index(log, cfg)
    out = Path(args.out)
    fp = _fingerprint(cfg)
    stamp = f"# fingerprint={fp}\n"
    _write(out, "slab_index.json", artifacts.index.to_json(fingerprint=fp))
    _write(out, "coverage.csv", stamp + coverage_csv(artifacts.matrices.values()))
    for name, matrix in artifacts.matrices.items():
        _write(out, f"similarity_{name}.csv", stamp + similarity_csv(matrix))
    counts = artifacts.index.slab_counts()
    cells = math.prod(artifacts.index.grid_shape())
    print(f"slab index written: {counts} -> {cells} multi-aspect slabs")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    log = _load_log(cfg)
    index = _read_index(args.slabs)
    from .pipeline import SlabArtifacts
    models = train_models(log, cfg, SlabArtifacts(index, {}))
    out = Path(args.out)
    fp = _fingerprint(cfg)
    params, em_report, geo = models.params, models.em_report, _geo_json(models, fp)
    # Only the parameters are rendered from here on: the log and the scorers
    # go first, so the rendered pieces are not held beside them.
    del log, models
    _write(out, "mati_params.json", params_to_json(params, fingerprint=fp))
    report = {
        "fingerprint": fp,
        "log_likelihood": em_report.log_likelihood,
        "iterations": em_report.iterations,
        "converged": em_report.converged,
        "slab_checksum": params.slab_checksum,
    }
    _write(out, "em_report.json", json.dumps(report, sort_keys=True, indent=1))
    _write(out, "geo_model.json", geo)
    print(f"EM finished in {em_report.iterations} iterations "
          f"(converged={em_report.converged})")
    return 0


def _geo_json(models, fp: str) -> str:
    geo = models.components.geo
    return json.dumps({"fingerprint": fp, "log_a": geo.log_a,
                       "b": geo.b, "d_min_km": geo.d_min_km}, sort_keys=True, indent=1)


def cmd_recommend(cfg: RunConfig, args) -> int:
    if args.n < 1:
        raise ConfigError("--n must be >= 1")
    if args.model not in MODELS:
        raise ConfigError(f"--model must be one of {MODELS}, got {args.model!r}")
    log = _load_log(cfg)
    index = _read_index(args.slabs)
    params = None
    if args.params:
        # The file is read a line at a time; with ``newline=""`` no line end
        # is translated, so a ``\r`` reaches the reader, which refuses it.
        with ing.open_input(args.params, newline="") as fh:
            params = params_from_json(fh, expected_checksum=index.checksum)
    from .pipeline import SlabArtifacts
    models = train_models(log, cfg, SlabArtifacts(index, {}), params)
    model = models.get(args.model)
    rows = [("user_id", "rank", "poi_id", "score", "path")]
    for user in args.user:
        if not len(log.rows(user)):
            raise DataError(f"unknown user {user!r}")
        items = model.recommend(user, args.n)
        scores = {}
        if items and hasattr(model, "score"):
            pool = models.components.candidates_for(user)
            scores = model.score(user, pool)
        path = model.routes[user].path if args.model == "hybrid" and items else args.model
        for rank, poi in enumerate(items, start=1):
            rendered = repr(scores[poi]) if poi in scores else ""
            rows.append((user, rank, poi, rendered, path))
        if len(items) < args.n:
            print(f"note: short list for {user}: {len(items)} < {args.n}", file=sys.stderr)
    text = f"# fingerprint={_fingerprint(cfg)}\n" + ing.csv_text(rows)
    if args.out:
        _write(Path(args.out), "recommendations.csv", text)
    print(text, end="")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    from . import evaluation as ev
    from .hybrid import decisions_csv
    log = _load_log(cfg)
    split = ev.split_exclude(log, cfg.eval.x, cfg.seed, cfg.eval.test_fraction)
    models = train_models(split.train_log, cfg)
    chosen = [models.get(name) for name in cfg.eval.model_list()]
    report = ev.evaluate(chosen, split, ns=cfg.eval.n_list(), fingerprint=_fingerprint(cfg))
    out = Path(args.out)
    _write(out, "eval_report.json", report.to_json())
    _write(out, "geo_model.json", _geo_json(models, report.fingerprint))
    _write(out, "eval_users.csv", f"# fingerprint={report.fingerprint}\n" + report.rows_csv())
    hybrid = models.recommenders.get("hybrid")
    if hybrid is not None and hybrid.decisions:
        run_stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        _write(out, "decisions.csv", f"# fingerprint={report.fingerprint}\n"
               + decisions_csv(hybrid.decisions, run_stamp))
    for model in sorted(report.aggregates):
        for n in report.ns:
            m = report.aggregates[model][n]
            print(f"{model}@{n}: precision={m['precision']:.4f} recall={m['recall']:.4f} "
                  f"f1={m['f1']:.4f} failure_rate={m['failure_rate']:.4f}")
    return 0


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    try:
        values = [float(p) for p in (parts if len(parts) == 3 else spec.split(","))]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc
    ranged = len(parts) == 3
    if not all(map(math.isfinite, values)) or ranged and (values[2] <= 0 or values[1] < values[0]):
        raise ConfigError(f"bad grid spec {spec!r}")
    if not ranged:
        return values
    (v, hi, step), out = values, []
    while v <= hi + 1e-12:
        out.append(round(v, 12))
        v += step
    return out


TUNABLE = ("phi_t", "alpha", "beta", "xi")
OBJECTIVES = ("precision", "recall", "f1", "failure_rate")  # as EvalReport.aggregates holds them


def cmd_tune(cfg: RunConfig, args) -> int:
    from . import evaluation as ev
    if args.param not in TUNABLE:
        raise ConfigError(f"--param must be one of {TUNABLE}, got {args.param!r}")
    grid = _parse_grid(args.grid)
    metric, _, n = args.objective.partition("@")
    if metric not in OBJECTIVES or not (n or "5").isdecimal() or int(n or 5) < 1:
        raise ConfigError(f"--objective must be metric@n, a metric of {OBJECTIVES} and n >= 1, "
                          f"got {args.objective!r}")
    objective = (metric, int(n or 5))
    log = _load_log(cfg)
    # Tuning population: active and semi-active users only, sampled at 20%.
    split = ev.split_exclude(log, cfg.eval.x, cfg.seed, cfg.eval.test_fraction,
                             min_checkins=cfg.sampling.strata_high)
    models = train_models(split.train_log, cfg)

    def build(value: float):
        from dataclasses import replace
        from .pipeline import MatiRecommender, UsgRecommender, UsgtRecommender
        if args.param == "phi_t":
            return MatiRecommender(models.components, models.params,
                                   models.user_profiles, models.poi_profiles, value)
        if args.param in ("alpha", "beta"):
            tuned = replace(cfg.usg, **{args.param: value})
            tuned.validate()
            models.components.set_weights(tuned.weights())
            return UsgRecommender(models.components)
        tuned_cfg = replace(cfg, univariate=replace(cfg.univariate, xi=value))
        return UsgtRecommender(models.components, tuned_cfg)

    result = ev.tune_sweep(args.param, grid, build, split, objective)
    out = Path(args.out)
    fp = _fingerprint(cfg)
    _write(out, "tune_curve.csv", f"# fingerprint={fp}\n" + result.curve_csv())
    _write(out, "tune_best.json", json.dumps(
        {"parameter": result.parameter, "best_value": result.best_value,
         "objective": result.objective, "fingerprint": fp},
        sort_keys=True, indent=1))
    print(f"best {result.parameter} = {result.best_value} by {result.objective}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matirec",
                                     description="Temporal-slab POI recommendation pipeline")
    parser.add_argument("--config", help="path to the run config file")
    parser.add_argument("--seed", type=int, help="override run.seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ingest").add_argument("--out", default="out")
    p = sub.add_parser("stats")
    p.add_argument("--out", default="")
    sub.add_parser("slabs").add_argument("--out", default="out")
    p = sub.add_parser("train")
    p.add_argument("--slabs", required=True, help="slab_index.json from the slabs stage")
    p.add_argument("--out", default="out")
    p = sub.add_parser("recommend")
    p.add_argument("--slabs", required=True)
    p.add_argument("--params", default="",
                   help="trained mati_params.json to serve instead of retraining EM")
    p.add_argument("--user", action="append", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--model", default="hybrid")
    p.add_argument("--out", default="")
    sub.add_parser("evaluate").add_argument("--out", default="out")
    p = sub.add_parser("tune")
    p.add_argument("--param", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step or comma list")
    p.add_argument("--objective", default="f1@5")
    p.add_argument("--out", default="out")
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "slabs": cmd_slabs,
    "train": cmd_train,
    "recommend": cmd_recommend,
    "evaluate": cmd_evaluate,
    "tune": cmd_tune,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        return COMMANDS[args.command](cfg, args)
    except MatirecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
