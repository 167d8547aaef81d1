"""Run configuration: flat keyed text file with one section per stage.

Every knob has a default; unknown sections or keys are rejected with the
offending key path.  Environment variables ``MATI_<SECTION>_<KEY>`` override
file values.  All randomness flows from ``run.seed``, split per stage with
fixed tags.

The bottom layer: it owns every section's dataclass (the model modules import
theirs from here) and imports only the standard library and ``errors``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .errors import ConfigError

ENV_PREFIX = "MATI"

# Stage tags for seed splitting: default_rng([seed, tag]).
SEED_SAMPLING = 11
SEED_MF = 12
SEED_SPLIT = 13

# Check-in TSV columns in the Brightkite dump's order; data.column_format permutes them.
DEFAULT_COLUMNS = ("user", "time", "lat", "lon", "poi")


@dataclass
class DataConfig:
    checkins: str = ""
    social: str = ""
    utc_offset_hours: int = 0
    column_format: str = ",".join(DEFAULT_COLUMNS)
    on_error: str = "abort"

    def validate(self):
        if self.on_error not in ("abort", "skip"):
            raise ConfigError(f"data.on_error must be abort|skip, got {self.on_error!r}")
        if not -12 <= self.utc_offset_hours <= 14:  # the range of real UTC offsets
            raise ConfigError(f"data.utc_offset_hours must be in [-12,14], "
                              f"got {self.utc_offset_hours}")
        if sorted(map(str.strip, self.column_format.split(","))) != sorted(DEFAULT_COLUMNS):
            raise ConfigError(f"data.column_format must permute {','.join(DEFAULT_COLUMNS)}, "
                              f"got {self.column_format!r}")


@dataclass
class FactorConfig:
    names: str = "hour,day"
    hac_threshold: float = 0.6
    hac_threshold_hour: float = -1.0   # < 0 means inherit hac_threshold
    hac_threshold_day: float = -1.0
    binary_vectors: bool = False

    def validate(self):
        if not self.names.strip():
            raise ConfigError("factors.names must list at least one factor")
        if not 0 <= self.hac_threshold <= 1:
            raise ConfigError(f"factors.hac_threshold must be in [0,1], got {self.hac_threshold}")
        for name in ("hour", "day"):
            if not -math.inf < (value := getattr(self, f"hac_threshold_{name}")) <= 1:
                raise ConfigError(f"factors.hac_threshold_{name} must be finite and at most 1 "
                                  f"(below 0: inherit factors.hac_threshold), got {value}")

    def factor_names(self) -> list[str]:
        return [n.strip() for n in self.names.split(",") if n.strip()]

    def threshold_for(self, name: str) -> float:
        override = getattr(self, f"hac_threshold_{name}", -1.0)
        return self.hac_threshold if override < 0 else override


@dataclass
class SamplingConfig:
    strata_low: int = 5
    strata_high: int = 15
    m_min: int = 30
    n_percent: float = 5.0
    max_rounds: int = 100

    def validate(self):
        if self.strata_low >= self.strata_high:
            raise ConfigError("sampling.strata_low must be < sampling.strata_high")
        if self.m_min < 1:
            raise ConfigError("sampling.m_min must be >= 1")
        if not 0 < self.n_percent <= 100:
            raise ConfigError("sampling.n_percent must be in (0,100]")
        if self.max_rounds < 1:
            raise ConfigError("sampling.max_rounds must be >= 1")


@dataclass
class MfConfig:
    rank: int = 3
    reg: float = 0.01
    iters: int = 200
    tol: float = 1e-8

    def validate(self):
        if self.rank < 1:
            raise ConfigError("mf.rank must be >= 1")
        if self.iters < 1:
            raise ConfigError(f"mf.iters must be >= 1, got {self.iters}")
        for name in ("reg", "tol"):
            if not 0 <= (value := getattr(self, name)) < math.inf:
                raise ConfigError(f"mf.{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class UsgWeights:
    """Mixing weights: score = (1-alpha-beta)*cf + alpha*social + beta*geo."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 <= self.alpha < 1 or not 0 <= self.beta < 1 or self.alpha + self.beta >= 1:
            raise ConfigError(f"usg weights need alpha,beta in [0,1) with alpha+beta < 1, "
                              f"got alpha={self.alpha} beta={self.beta}")


@dataclass
class UsgConfig:
    alpha: float = 0.3
    beta: float = 0.4
    k_neighbors: int = 50
    bin_km: float = 0.5
    d_min_km: float = 0.1

    def validate(self):
        UsgWeights(self.alpha, self.beta)
        if self.k_neighbors < 1:
            raise ConfigError("usg.k_neighbors must be >= 1")
        for name in ("bin_km", "d_min_km"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise ConfigError(f"usg.{name} must be positive and finite, got {value}")

    def weights(self) -> UsgWeights:
        return UsgWeights(self.alpha, self.beta)


@dataclass
class MatiConfig:
    phi_t: float = 0.7
    gamma: float = 1.0
    em_tol: float = 1e-6
    em_max_iter: int = 200

    def validate(self):
        if not 0 <= self.phi_t <= 1:
            raise ConfigError("mati.phi_t must be in [0,1]")
        if self.em_max_iter < 0:
            raise ConfigError(f"mati.em_max_iter must be >= 0, got {self.em_max_iter}")
        for name in ("gamma", "em_tol"):
            if not 0 <= (value := getattr(self, name)) < math.inf:
                raise ConfigError(f"mati.{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class UnivariateConfig:
    """Thresholds of the weekday/weekend framework.

    t: effective-act threshold above which the temporal path applies
       (1/7 matches a uniform day-of-week split).
    lam: margin shift separating weekday from weekend lean.
    theta: POI-act cut separating weekday / neutral / weekend candidates.
    xi: share of the final list reserved for neutral POIs.
    k: candidate-pool multiplier (the temporal path re-ranks the top k*n).
    """

    t: float = 1.0 / 7.0
    lam: float = 0.5
    theta: float = 0.0
    xi: float = 0.1
    k: int = 10

    def __post_init__(self):
        if not 0 < self.t < 1:
            raise ConfigError(f"univariate.t must be in (0,1), got {self.t}")
        if not 0 < self.lam < 1:
            raise ConfigError(f"univariate.lam must be in (0,1), got {self.lam}")
        if not math.isfinite(self.theta):
            raise ConfigError(f"univariate.theta must be finite, got {self.theta}")
        if not 0 <= self.xi < 1:
            raise ConfigError(f"univariate.xi must be in [0,1), got {self.xi}")
        if self.k < 1:
            raise ConfigError(f"univariate.k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class HybridConfig:
    """Closed interval of mean shared activity in which the temporal path applies."""

    psi_low: float = 0.4
    psi_high: float = 0.9

    def __post_init__(self):
        if not 0 <= self.psi_low <= self.psi_high <= 1:
            raise ConfigError(f"psi range must satisfy 0 <= low <= high <= 1, "
                              f"got [{self.psi_low}, {self.psi_high}]")


# Every recommender ``pipeline.train_models`` builds, by its ``name``, in the
# order it builds them.
MODELS = ("ubcf", "usg", "usgt", "ubcft", "mati", "hybrid")


@dataclass
class EvalConfig:
    x: float = 0.3
    test_fraction: float = 0.2
    ns: str = "5,10,20"
    models: str = ",".join(MODELS)

    def validate(self):
        if not 0 < self.x < 1:
            raise ConfigError("eval.x must be in (0,1)")
        if not 0 < self.test_fraction <= 1:
            raise ConfigError("eval.test_fraction must be in (0,1]")
        self.n_list()
        self.model_list()

    def n_list(self) -> tuple[int, ...]:
        try:
            ns = tuple(int(v) for v in self.ns.split(","))
        except ValueError as exc:
            raise ConfigError(f"eval.ns must be comma-separated integers, got {self.ns!r}") from exc
        if min(ns) < 1:
            raise ConfigError(f"eval.ns entries must be >= 1, got {self.ns!r}")
        if len(set(ns)) < len(ns):
            raise ConfigError(f"eval.ns must list distinct sizes, got {self.ns!r}")
        return ns

    def model_list(self) -> list[str]:
        names = [m.strip() for m in self.models.split(",") if m.strip()]
        if not names or len(set(names)) < len(names) or not set(names) <= set(MODELS):
            raise ConfigError(f"eval.models must name distinct models of {MODELS}, "
                              f"got {self.models!r}")
        return names


@dataclass
class RunConfig:
    seed: int = 42
    data: DataConfig = field(default_factory=DataConfig)
    factors: FactorConfig = field(default_factory=FactorConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    mf: MfConfig = field(default_factory=MfConfig)
    usg: UsgConfig = field(default_factory=UsgConfig)
    univariate: UnivariateConfig = field(default_factory=UnivariateConfig)
    mati: MatiConfig = field(default_factory=MatiConfig)
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def utc_offset_seconds(self) -> int:
        return self.data.utc_offset_hours * 3600


_SECTIONS = {
    "run": None,       # holds the root seed
    "data": DataConfig,
    "factors": FactorConfig,
    "sampling": SamplingConfig,
    "mf": MfConfig,
    "usg": UsgConfig,
    "univariate": UnivariateConfig,
    "mati": MatiConfig,
    "hybrid": HybridConfig,
    "eval": EvalConfig,
}


def _coerce(raw: str, target_type: type, path: str):
    try:
        if target_type is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {path}: {raw!r}") from exc


def check_seed(seed: int) -> int:
    """``seed``, refused below 0: numpy seeds only non-negative integers."""
    if seed < 0:
        raise ConfigError(f"run.seed must be >= 0, got {seed}")
    return seed


def load_config(path: str | Path | None = None,
                env: Mapping[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and env overrides."""
    env = os.environ if env is None else env
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(str(path))
        except configparser.Error as exc:
            raise ConfigError(f"config file {path} is malformed: "
                              + " ".join(str(exc).split())) from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")

    values: dict[str, dict[str, str]] = {s: dict(parser.items(s)) for s in parser.sections()}
    for key, raw in env.items():
        if not key.startswith(ENV_PREFIX + "_"):
            continue
        rest = key[len(ENV_PREFIX) + 1:]
        section, _, option = rest.partition("_")
        section = section.lower()
        option = option.lower()
        if not option:
            raise ConfigError(f"malformed override variable {key}")
        values.setdefault(section, {})[option] = raw

    cfg = RunConfig()
    for section, entries in values.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        if section == "run":
            for option, raw in entries.items():
                if option != "seed":
                    raise ConfigError(f"unknown config key run.{option}")
                cfg.seed = check_seed(_coerce(raw, int, "run.seed"))
            continue
        target = getattr(cfg, section)
        known = {f.name: f.type for f in fields(target)}
        updates = {}
        for option, raw in entries.items():
            if option not in known:
                raise ConfigError(f"unknown config key {section}.{option}")
            current = getattr(target, option)
            updates[option] = _coerce(raw, type(current), f"{section}.{option}")
        if updates:
            merged = {f.name: getattr(target, f.name) for f in fields(target)}
            merged.update(updates)
            setattr(cfg, section, _SECTIONS[section](**merged))

    for section, klass in _SECTIONS.items():
        if klass is None:
            continue
        obj = getattr(cfg, section)
        if hasattr(obj, "validate"):
            obj.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: sorted sections and keys (round-trip idempotent)."""
    lines = ["[run]", f"seed = {cfg.seed}", ""]
    for section in sorted(s for s in _SECTIONS if s != "run"):
        obj = getattr(cfg, section)
        lines.append(f"[{section}]")
        for f in sorted(fields(obj), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(obj, f.name)}")
        lines.append("")
    return "\n".join(lines)


def fingerprint(cfg: RunConfig, input_checksums: Mapping[str, str] | None = None) -> str:
    """Hash of config + seed + input checksums, stamped into every artifact."""
    h = hashlib.sha256(serialize_config(cfg).encode("utf-8"))
    for name, checksum in sorted((input_checksums or {}).items()):
        h.update(f"{name}={checksum}".encode("utf-8"))
    return h.hexdigest()


def file_checksum(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
