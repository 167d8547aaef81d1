"""Per-user routing between the temporal model and the non-temporal scorer.

A query user is temporally sensitive when the mean shared-activity overlap
between them and their non-temporal top-``PROBE_N`` candidates falls inside a
tuned closed interval; only then does the temporal score rank the final list.
The overlap is ``mati.shared_activity`` over the user's and the candidates'
rows of slab cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .config import HybridConfig
from .errors import DataError
from .ingest import csv_text
from .mati import shared_activity

Path = Literal["temporal", "non_temporal"]

# Size of the non-temporal list a user's route is decided on.
PROBE_N = 5


def avg_shared_activity(user_cells: np.ndarray, cell_candidates: np.ndarray,
                        candidate_counts: np.ndarray) -> float:
    """Mean shared-activity overlap between the user and their candidates
    (one column of per-cell counts or active flags each, and each one's
    number of active cells), summed left to right in candidate order."""
    if not len(candidate_counts):
        raise DataError("cannot average shared activity over an empty candidate list")
    total = 0.0
    for psi in shared_activity(user_cells, cell_candidates, candidate_counts).tolist():
        total += psi
    return total / len(candidate_counts)


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
