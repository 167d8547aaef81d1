"""Benchmark of the matirec CLI pipeline on seeded synthetic corpora.

One run generates a corpus from ``--seed``, writes the raw check-in and
social TSVs plus a run config, and drives the CLI the way its users do:
``ingest -> slabs -> train -> recommend -> evaluate``, each command in its
own process, one at a time.  It then checks the outputs (``checks.py``) and
prints one JSON line with the end-to-end metrics.  With ``--trace 1`` the
same commands run in this process, once untraced and once with spans
(``spans.py``), and the JSON line holds the per-layer metrics instead.

Run from the repository root (``--workload all`` runs both workloads):

    python3 clibench/run.py --workload planted --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".clibench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpora  # noqa: E402

RUN_SEED = 42            # the program's run.seed; the corpus comes from --seed
RECOMMEND_USERS = 20     # one recommend call serves this seeded batch
RECOMMEND_N = 10
COMMAND_TIMEOUT = 170    # seconds; a run must end within 180
EVAL_X = 0.3             # the program's eval defaults, restated for the checks
EVAL_NS = (5, 10, 20)
EVAL_MODELS = ("ubcf", "usg", "usgt", "ubcft", "mati", "hybrid")
GAMMA = 1.0

# The acceptance suite's planted settings; with psi in [0.05, 0.95] every
# user routes to the temporal path.
PLANTED_CONFIG = """[sampling]
m_min = 20
n_percent = 10
[usg]
alpha = 0.2
beta = 0.3
[hybrid]
psi_low = 0.05
psi_high = 0.95
"""


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, int], corpora.Corpus]
    users: int
    config: str       # sections added to the default config
    lift_n: int       # list size at which every model must beat random ranking
    min_lift: float   # ... by this factor


WORKLOADS = {
    "planted": Workload(corpora.planted, 500, PLANTED_CONFIG, lift_n=5, min_lift=5.0),
    "longtail": Workload(corpora.longtail, 800, "", lift_n=20, min_lift=1.0),
}

END_TO_END = [("setup_s", "s"), ("slabs_s", "s"), ("train_s", "s"), ("recommend_s", "s"),
              ("evaluate_s", "s"), ("peak_rss_mb", "MB"), ("params_mb", "MB")]
LAYER_TIMES = ["ingest.parse", "sampling.collect", "slabs.similarity", "slabs.complete",
               "slabs.hac", "slabs.profiles", "baselines.components", "pipeline.pr_nu",
               "pipeline.train_models", "mati.em", "mati.params_write", "mati.params_read",
               "evaluation.split"] + [f"evaluation.{m}" for m in EVAL_MODELS] + [
               "hybrid.route", "recommend.hybrid"]
LAYER_COUNTS = ["ingest.checkins", "sampling.rounds", "sampling.users_drawn",
                "slabs.grid_cells", "mati.em_iterations", "mati.pairs", "mati.params_bytes",
                "evaluation.test_users", "evaluation.candidates", "hybrid.temporal_users",
                "hybrid.non_temporal_users"]


def commands(batch: list[str]) -> list[tuple[str, list[str]]]:
    recommend = ["recommend", "--slabs", "out/slab_index.json", "--params",
                 "out/mati_params.json", "--n", str(RECOMMEND_N), "--model", "hybrid",
                 "--out", "out"]
    for user in batch:
        recommend += ["--user", user]
    return [("ingest", ["ingest", "--out", "out"]),
            ("slabs", ["slabs", "--out", "out"]),
            ("train", ["train", "--slabs", "out/slab_index.json", "--out", "out"]),
            ("recommend", recommend),
            ("evaluate", ["evaluate", "--out", "eval"])]


def prepare(name: str, seed: int, users: int) -> tuple[Path, list[str]]:
    """Write the corpus and run config into a fresh work directory."""
    spec = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = spec.generate(users, seed)
    corpus.write(work)
    config = (f"[run]\nseed = {RUN_SEED}\n[data]\ncheckins = checkins.tsv\n"
              f"social = social.tsv\n" + spec.config)
    (work / "run.cfg").write_text(config, encoding="utf-8")
    pool = corpus.users()
    rng = np.random.default_rng([seed, 2])
    batch = sorted(pool[i] for i in rng.choice(len(pool), size=min(RECOMMEND_USERS, len(pool)),
                                               replace=False))
    return work, batch


def run_subprocess(work: Path, argv: list[str]) -> tuple[float, bool]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "matirec.cli", "--config", "run.cfg", *argv]
    with open(work / "commands.log", "ab") as log:
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=COMMAND_TIMEOUT)
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        return time.perf_counter() - start, ok


def round_schedule(batch: list[str]) -> list[tuple[str, list[str]]]:
    """The five commands in order, with the sub-second ones (ingest, slabs) also
    repeated after each longer command.  The machine's speed drifts over tens
    of seconds, so their median is taken over samples spread across the round."""
    cmds = commands(batch)
    schedule = cmds[:2]
    for cmd in cmds[2:]:
        schedule += [cmd] + cmds[:2]
    return schedule


def rounds(seconds: float):
    """Yield once per round: at least once, and again while the next round is
    expected to end within ``seconds`` of the start."""
    start = time.perf_counter()
    last = 0.0
    while not last or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        yield
        last = time.perf_counter() - round_start


def timed_rounds(work: Path, batch: list[str], seconds: float):
    """Rounds of CLI processes; end-to-end metrics are medians over the rounds."""
    times: dict[str, list[float]] = {name: [] for name, _ in commands(batch)}
    attempted = failed = 0
    for _ in rounds(seconds):
        for name, argv in round_schedule(batch):
            elapsed, ok = run_subprocess(work, argv)
            times[name].append(elapsed)
            attempted += 1
            failed += not ok
    params = work / "out" / "mati_params.json"
    metrics = {"setup_s" if name == "ingest" else f"{name}_s": statistics.median(vals)
               for name, vals in times.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["params_mb"] = params.stat().st_size / 1e6 if params.exists() else 0.0
    return metrics, dict(END_TO_END), attempted, failed


def run_inprocess(work: Path, batch: list[str], tracer=None) -> tuple[float, int]:
    """One pass of the commands through ``matirec.cli.main`` in this process."""
    from matirec import cli
    failed = 0
    cwd = os.getcwd()
    os.chdir(work)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with open("inprocess.log", "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log):
            for _, argv in commands(batch):
                try:
                    failed += cli.main(["--config", "run.cfg", *argv]) != 0
                except Exception:
                    traceback.print_exc()
                    failed += 1
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    return elapsed, failed


def traced_rounds(work: Path, batch: list[str], seconds: float):
    """Rounds of one untraced and one traced in-process pass; per-layer metrics
    are medians over the traced passes."""
    sys.path.insert(0, str(SRC))
    import matirec
    from spans import Tracer
    if not Path(matirec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"matirec imported from {matirec.__file__}, not from {SRC}")
    samples: dict[str, list[float]] = {}
    overhead = []
    attempted = failed = 0
    for _ in rounds(seconds):
        plain, bad = run_inprocess(work, batch)
        tracer = Tracer()
        traced, bad_traced = run_inprocess(work, batch, tracer)
        attempted += 2 * len(commands(batch))
        failed += bad + bad_traced
        overhead.append(traced - plain)
        layers = tracer.self_times()
        for name in LAYER_TIMES:
            samples.setdefault(f"{name}_s", []).append(layers.get(name, (0, 0.0, 0.0))[2])
        for name in LAYER_COUNTS:
            samples.setdefault(name, []).append(tracer.counts[name])
        samples.setdefault("trace.coverage", []).append(min(tracer.command_coverage().values()))
    print_layers(tracer, plain, traced)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics.update({name: int(metrics[name]) for name in LAYER_COUNTS})
    metrics["trace.overhead_s"] = statistics.median(overhead)
    units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    units["mati.params_bytes"] = "bytes"
    units["trace.coverage"] = "ratio"
    return metrics, units, attempted, failed


def print_layers(tracer, plain: float, traced: float) -> None:
    print(f"{'span':<26}{'calls':>7}{'total_s':>10}{'self_s':>10}")
    for name, (calls, total, own) in sorted(tracer.self_times().items()):
        print(f"{name:<26}{calls:>7}{total:>10.3f}{own:>10.3f}")
    for cmd, share in tracer.command_coverage().items():
        print(f"coverage {cmd}: {share:.3f} of the command's wall time is in child spans")
    print(f"in-process pass: untraced {plain:.3f} s, traced {traced:.3f} s")


def artifact_digest(work: Path) -> str:
    """sha256 over the artifacts, without fingerprint stamps and decision times."""
    h = hashlib.sha256()
    for path in sorted(p for d in ("out", "eval") for p in (work / d).glob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            payload = json.loads(text)
            payload.pop("fingerprint", None)
            text = json.dumps(payload, sort_keys=True)
        else:
            lines = [line for line in text.splitlines() if not line.startswith("# fingerprint=")]
            if path.name == "decisions.csv":
                lines = [line.rsplit(",", 1)[0] for line in lines]
            text = "\n".join(lines)
        h.update(f"{path.parent.name}/{path.name}\n".encode())
        h.update(hashlib.sha256(text.encode("utf-8")).digest())
    return h.hexdigest()


def check_outputs(name: str, work: Path, batch: list[str]) -> list[str]:
    spec = WORKLOADS[name]
    try:
        raw = checks.RawLog(work / "checkins.tsv")
        grid = checks.SlabGrid(work / "out" / "slab_index.json")
        errors, worst = checks.check_params(raw, grid, work / "out" / "mati_params.json",
                                            work / "out" / "em_report.json", GAMMA)
        errors += checks.check_recommendations(raw, work / "out" / "recommendations.csv",
                                               batch, RECOMMEND_N)
        eval_errors, lifts = checks.check_evaluation(
            raw, work / "eval" / "eval_users.csv", work / "eval" / "eval_report.json",
            EVAL_X, EVAL_NS, EVAL_MODELS, spec.lift_n, spec.min_lift)
        errors += eval_errors
        decisions = (work / "eval" / "decisions.csv").read_text(encoding="utf-8")
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs missing or unreadable: {exc!r}"]
    paths = [line.split(",")[2] for line in decisions.splitlines()[2:]]
    summary = checks.corpus_summary(raw, grid)
    summary["em_iterations"] = json.loads(
        (work / "out" / "em_report.json").read_text(encoding="utf-8"))["iterations"]
    summary["routing"] = {p: paths.count(p) for p in sorted(set(paths))}
    print("corpus " + json.dumps(summary, sort_keys=True))
    print(f"closed-form worst error {worst:.3e}; precision@{spec.lift_n} over random: "
          + ", ".join(f"{m} {v:.1f}x" for m, v in lifts.items()))
    print(f"artifacts_sha256 {artifact_digest(work)}")
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: int, users: int) -> dict:
    work, batch = prepare(name, seed, users)
    rounds = traced_rounds if trace else timed_rounds
    metrics, units, attempted, failed = rounds(work, batch, seconds)
    errors = check_outputs(name, work, batch)
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    for metric, value in metrics.items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}")
    print(f"{name}: attempted {attempted} commands, {failed} failed")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--users", type=int, help="corpus size (default: the workload's)")
    args = parser.parse_args(argv)
    if not (SRC / "matirec" / "cli.py").is_file():
        print(f"error: no matirec sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                  args.users or WORKLOADS[name].users) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": value for name, r in results.items()
                              for metric, value in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
