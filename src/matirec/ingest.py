"""Parse raw check-in and social-edge files into the canonical in-memory dataset.

Input is tab-separated check-in lines (default column order
``user_id, timestamp, lat, lon, poi_id`` -- the order of the public
Brightkite dump) and tab-separated undirected social edges.  Timestamps may
be integer epoch seconds or ISO-8601; naive ISO timestamps are treated as
UTC.  The parsed ``CheckInLog`` is immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import DataError

DEFAULT_COLUMNS = ("user", "time", "lat", "lon", "poi")
COLD_START_DISTINCT_POIS = 5

Source = Union[str, Path, bytes, IO]


@dataclass(frozen=True, slots=True)
class CheckIn:
    """One timestamped visit event: (user, POI, epoch seconds UTC, coordinates)."""

    user_id: str
    poi_id: str
    timestamp: int
    lat: float
    lon: float

    def __post_init__(self):
        if not self.user_id or not self.poi_id:
            raise DataError("empty user or poi id")
        if self.timestamp <= 0:
            raise DataError(f"timestamp must be positive, got {self.timestamp}")
        if not -90.0 <= self.lat <= 90.0 or not -180.0 <= self.lon <= 180.0:
            raise DataError(f"coordinate out of range: ({self.lat}, {self.lon})")


@dataclass(frozen=True)
class LogColumns:
    """A log's check-ins as integer columns, one entry per check-in.

    Users (check-in and social-only) and POIs are interned to dense ints in
    sorted-id order, so int order is id order.
    """

    users: tuple[str, ...]
    pois: tuple[str, ...]
    user: np.ndarray
    poi: np.ndarray
    timestamp: np.ndarray


class CheckInLog:
    """Canonical store of check-in events plus the undirected social edge set.

    ``by_user`` groups the events by user in stable input order.  Social
    edges may reference users that have no check-ins; self loops are
    rejected.  ``columns`` is the integer view every array computation
    starts from.
    """

    def __init__(self, checkins: Iterable[CheckIn], social_edges: Iterable[tuple[str, str]] = (),
                 skipped_lines: int = 0):
        self.checkins: tuple[CheckIn, ...] = tuple(checkins)
        edges = set()
        for a, b in social_edges:
            if a == b:
                raise DataError(f"self-loop social edge: {a}")
            edges.add((a, b) if a < b else (b, a))
        self.social_edges: frozenset[tuple[str, str]] = frozenset(edges)
        self.skipped_lines = skipped_lines
        by_user: dict[str, list[CheckIn]] = {}
        for c in self.checkins:
            by_user.setdefault(c.user_id, []).append(c)
        self.by_user: dict[str, tuple[CheckIn, ...]] = {u: tuple(v) for u, v in by_user.items()}

    def users(self) -> frozenset[str]:
        """Users that appear in the check-ins or in the social graph."""
        social_users = {u for edge in self.social_edges for u in edge}
        return frozenset(self.by_user) | frozenset(social_users)

    def pois(self) -> frozenset[str]:
        return frozenset(c.poi_id for c in self.checkins)

    @cached_property
    def columns(self) -> LogColumns:
        users = tuple(sorted(self.users()))
        pois = tuple(sorted(self.pois()))
        user_index = {u: i for i, u in enumerate(users)}
        poi_index = {p: i for i, p in enumerate(pois)}
        n = len(self.checkins)
        return LogColumns(
            users, pois,
            np.fromiter((user_index[c.user_id] for c in self.checkins), np.intp, n),
            np.fromiter((poi_index[c.poi_id] for c in self.checkins), np.intp, n),
            np.fromiter((c.timestamp for c in self.checkins), np.int64, n))

    def distinct_pois(self, user_id: str) -> frozenset[str]:
        return frozenset(c.poi_id for c in self.by_user.get(user_id, ()))

    def with_social(self, edges: Iterable[tuple[str, str]]) -> "CheckInLog":
        return CheckInLog(self.checkins, edges, self.skipped_lines)

    def _canonical(self):
        key = lambda c: (c.user_id, c.timestamp, c.poi_id, c.lat, c.lon)
        return (tuple(sorted(self.checkins, key=key)), self.social_edges)

    def __eq__(self, other):
        if not isinstance(other, CheckInLog):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __len__(self):
        return len(self.checkins)


@dataclass(frozen=True)
class DatasetStats:
    """Corpus-level counts and sparsity figures.

    Users are counted over the union of check-in users and social-graph
    users, so social-only members (with zero check-ins, hence zero distinct
    POIs) enter both the cold-start ratio and the per-user average.
    """

    n_users: int
    n_pois: int
    n_checkins: int
    n_social_links: int
    cold_start_ratio: float
    avg_pois_per_user: float
    density: float

    def report(self) -> str:
        lines = [f"{k}={getattr(self, k)!r}" for k in (
            "n_users", "n_pois", "n_checkins", "n_social_links",
            "cold_start_ratio", "avg_pois_per_user", "density")]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedSocial:
    edges: frozenset[tuple[str, str]]
    skipped: int = 0


@dataclass
class ColumnFormat:
    """Column order of a check-in TSV; a permutation of the default names."""

    columns: tuple[str, ...] = DEFAULT_COLUMNS
    index: dict = field(init=False)

    def __post_init__(self):
        if sorted(self.columns) != sorted(DEFAULT_COLUMNS):
            raise DataError(f"column format must permute {DEFAULT_COLUMNS}, got {self.columns}")
        self.index = {name: i for i, name in enumerate(self.columns)}

    @classmethod
    def parse(cls, spec: str) -> "ColumnFormat":
        return cls(tuple(part.strip() for part in spec.split(",")))


def _lines(source: Source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    elif isinstance(source, bytes):
        yield from io.StringIO(source.decode("utf-8"))
    else:
        for line in source:
            yield line.decode("utf-8") if isinstance(line, bytes) else line


def parse_timestamp(token: str) -> int:
    """Epoch seconds from an integer literal or an ISO-8601 string (naive = UTC)."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"malformed timestamp {token!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_checkins(source: Source, fmt: ColumnFormat | None = None,
                   on_error: str = "abort") -> CheckInLog:
    """Parse a check-in TSV into a CheckInLog (no social edges yet).

    ``on_error`` is ``abort`` (raise on the first malformed line, with its
    line number) or ``skip`` (drop malformed lines and count them in
    ``log.skipped_lines``).  Blank lines and ``#`` comment lines (used for
    fingerprints in cached files) are ignored.  Input order is preserved
    per user.
    """
    if on_error not in ("abort", "skip"):
        raise DataError(f"on_error must be 'abort' or 'skip', got {on_error!r}")
    fmt = fmt or ColumnFormat()
    idx = fmt.index
    checkins = []
    skipped = 0
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        try:
            if len(parts) != len(DEFAULT_COLUMNS):
                raise DataError(f"expected {len(DEFAULT_COLUMNS)} fields, got {len(parts)}")
            checkins.append(CheckIn(
                user_id=parts[idx["user"]].strip(),
                poi_id=parts[idx["poi"]].strip(),
                timestamp=parse_timestamp(parts[idx["time"]].strip()),
                lat=_parse_float(parts[idx["lat"]].strip(), "lat"),
                lon=_parse_float(parts[idx["lon"]].strip(), "lon"),
            ))
        except DataError as exc:
            if on_error == "abort":
                raise DataError(f"line {lineno}: {exc}") from exc
            skipped += 1
    return CheckInLog(checkins, skipped_lines=skipped)


def _parse_float(token: str, name: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise DataError(f"malformed {name} {token!r}") from exc


def parse_social(source: Source, on_error: str = "abort") -> ParsedSocial:
    """Parse `a TAB b` lines into a deduplicated undirected edge set.

    Self-loop lines are always skipped and counted, never fatal.
    """
    edges = set()
    skipped = 0
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            if on_error == "abort":
                raise DataError(f"line {lineno}: expected 2 fields")
            skipped += 1
            continue
        a, b = parts[0].strip(), parts[1].strip()
        if a == b:
            skipped += 1
            continue
        edges.add((a, b) if a < b else (b, a))
    return ParsedSocial(frozenset(edges), skipped)


def dataset_stats(log: CheckInLog) -> DatasetStats:
    """Corpus statistics: counts, cold-start ratio (< 5 distinct POIs), density."""
    if not log.checkins:
        raise DataError("empty dataset")
    users = sorted(log.users())
    pois = log.pois()
    distinct_per_user = {u: len(log.distinct_pois(u)) for u in users}
    n_users = len(users)
    n_pois = len(pois)
    n_pairs = sum(distinct_per_user.values())
    cold = sum(1 for v in distinct_per_user.values() if v < COLD_START_DISTINCT_POIS)
    return DatasetStats(
        n_users=n_users,
        n_pois=n_pois,
        n_checkins=len(log.checkins),
        n_social_links=len(log.social_edges),
        cold_start_ratio=cold / n_users,
        avg_pois_per_user=n_pairs / n_users,
        density=n_pairs / (n_users * n_pois),
    )


def serialize_log(log: CheckInLog) -> str:
    """Canonical on-disk form: input TSV sorted by (user, timestamp, poi)."""
    key = lambda c: (c.user_id, c.timestamp, c.poi_id, c.lat, c.lon)
    rows = [f"{c.user_id}\t{int(c.timestamp)}\t{float(c.lat)!r}\t{float(c.lon)!r}\t{c.poi_id}"
            for c in sorted(log.checkins, key=key)]
    return "\n".join(rows) + ("\n" if rows else "")


def serialize_social(log: CheckInLog) -> str:
    rows = [f"{a}\t{b}" for a, b in sorted(log.social_edges)]
    return "\n".join(rows) + ("\n" if rows else "")
