"""Per-user routing between the temporal model and the non-temporal scorer.

A query user is temporally sensitive when the mean shared-activity overlap
between them and their non-temporal top-``PROBE_N`` candidates falls inside a
tuned closed interval; only then does the temporal score rank the final list.
``pipeline.HybridRecommender`` takes that mean over its probe of POI ints,
summed left to right in probe order; this module holds the decision rule
and its CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .config import HybridConfig
from .ingest import csv_text

Path = Literal["temporal", "non_temporal"]

# Size of the non-temporal list a user's route is decided on.
PROBE_N = 5


def decide(mean_psi: float, cfg: HybridConfig) -> Path:
    """Route to the temporal path iff mean_psi lies in the closed interval."""
    return "temporal" if cfg.psi_low <= mean_psi <= cfg.psi_high else "non_temporal"


@dataclass(frozen=True)
class Decision:
    user_id: str
    mean_psi: float
    path: Path


def decisions_csv(decisions: Sequence[Decision], run_stamp: str) -> str:
    return csv_text([("user_id", "mean_psi", "path", "run_timestamp"),
                     *((d.user_id, repr(d.mean_psi), d.path, run_stamp) for d in decisions)])
