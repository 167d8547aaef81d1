"""The parameter file ``train`` writes, read by the benchmark's own checker.

``clibench/checks.py`` checks ``mati_params.json`` and ``em_report.json``
apart from the library: the pair set, a ``pr_nu`` key per pair, chain row
sums, a non-decreasing EM trace and the EM closed form.  This trains on a
small planted corpus through the CLI and passes the files to that checker,
loaded by path and unmodified.  Training weighs every pair alike, so every
``pr_nu`` value in the file is 1.0.
"""

import importlib.util
import json
import sys
from pathlib import Path

from corpus import planted_corpus

from matirec import cli, ingest
from matirec.config import load_config

CHECKS = Path(__file__).resolve().parents[1] / "clibench" / "checks.py"


def _checks_module():
    spec = importlib.util.spec_from_file_location("clibench_checks", CHECKS)
    checks = sys.modules.get(spec.name)
    if checks is None:
        checks = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = checks
        spec.loader.exec_module(checks)
    return checks


def test_trained_params_pass_the_benchmark_checker(tmp_path):
    log = planted_corpus(n_users=80, seed=5)
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text(ingest.serialize_log(log), encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"[data]\ncheckins = {checkins}\n"
                      "[sampling]\nm_min = 10\nn_percent = 25\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "slabs", "--out", str(out)]) == 0
    assert cli.main(["--config", str(config), "train",
                     "--slabs", str(out / "slab_index.json"), "--out", str(out)]) == 0

    checks = _checks_module()
    raw = checks.RawLog(checkins)
    errors, worst = checks.check_params(raw, checks.SlabGrid(out / "slab_index.json"),
                                        out / "mati_params.json", out / "em_report.json",
                                        load_config(config).mati.gamma)
    assert errors == []
    assert worst <= checks.CLOSED_FORM_TOL
    pr_nu = json.loads((out / "mati_params.json").read_text(encoding="utf-8"))["pr_nu"]
    assert len(pr_nu) == len(raw.pairs)
    assert set(pr_nu.values()) == {1.0}
