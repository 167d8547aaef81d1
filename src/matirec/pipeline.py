"""Training and recommendation wiring: builds every model from a training log.

This is the glue between the library modules and the CLI / evaluation
harness.  All recommenders share one candidate rule (every known POI the
user has not visited in the training view, ties broken by POI id).  Top-N
lists are nested, except that ``usgt``/``ubcft`` re-compose a ``k·n`` USG pool
per n (strict xfails ``test_top_n_lists_are_nested[usgt|ubcft]``, ROADMAP.md
item 5), so their n = 5 and 10 figures in ``evaluate``, taken from the top-20
list's prefix, are not of the lists ``recommend --n 5`` or ``--n 10`` serves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from . import univariate as uv
from .config import SEED_MF, SEED_SAMPLING, HybridConfig, RunConfig, UsgWeights
from .errors import ConfigError, DataError
from .hybrid import PROBE_N, Decision, avg_shared_activity, decide
from .ingest import CheckInLog
from .mati import (EmReport, MatiTables, mati_mix, pair_keys, poi_depth_means, run_em,
                   shared_activity)
from .sampling import collect_until
from .slabs import (SlabIndex, SlotSimilarityMatrix, aggregate_similarity, all_slab_profiles,
                    build_factor, complete_matrix, hac_complete_linkage)

logger = logging.getLogger(__name__)


@dataclass
class SlabArtifacts:
    index: SlabIndex
    matrices: dict[str, SlotSimilarityMatrix]


def build_slab_index(log: CheckInLog, cfg: RunConfig) -> SlabArtifacts:
    """Sampling -> similarity aggregation -> completion -> clustering -> cell grid.

    A factor with no observed slot pair has nothing to complete or merge, so
    it keeps one slab per slot.
    """
    offset = cfg.utc_offset_seconds()
    factors = [build_factor(name, offset) for name in cfg.factors.factor_names()]
    samples, _, _ = collect_until(
        log, factors, m_min=cfg.sampling.m_min, n_percent=cfg.sampling.n_percent,
        max_rounds=cfg.sampling.max_rounds, seed=cfg.seed * 1000 + SEED_SAMPLING,
        thresholds=(cfg.sampling.strata_low, cfg.sampling.strata_high),
        binary=cfg.factors.binary_vectors)
    matrices = {}
    slab_sets = {}
    for f in factors:
        matrix = aggregate_similarity(samples[f.name], m_min=cfg.sampling.m_min)
        if not matrix.observed.all():
            observed_cells = int(np.triu(matrix.observed).sum())
            if observed_cells == f.slot_count:  # only the diagonal
                logger.warning("factor %s: no slot pair reached %d samples; keeping one "
                               "slab per slot", f.name, cfg.sampling.m_min)
                matrices[f.name] = matrix
                slab_sets[f.name] = [(s,) for s in range(f.slot_count)]
                continue
            # Degrade the rank to what the observed cells can support.
            rank = max(1, min(cfg.mf.rank, f.slot_count - 1, observed_cells // f.slot_count))
            if rank < cfg.mf.rank:
                logger.warning("factor %s: degrading completion rank %d -> %d "
                               "(%d observed cells)", f.name, cfg.mf.rank, rank, observed_cells)
            matrix = complete_matrix(matrix, rank=rank, reg=cfg.mf.reg, iters=cfg.mf.iters,
                                     tol=cfg.mf.tol, seed=cfg.seed * 1000 + SEED_MF)
        matrices[f.name] = matrix
        slab_sets[f.name] = hac_complete_linkage(matrix, cfg.factors.threshold_for(f.name))
    return SlabArtifacts(SlabIndex(factors, slab_sets), matrices)


class UsgComponents:
    """Shared per-user scoring state for the CF + social + geo mixture.

    Scores are numpy vectors over an array of POI ints (``targets``), which
    defaults to the user's candidate pool: every POI they have not visited,
    in id order.  Each component is max-normalized over the targets before
    mixing.
    """

    def __init__(self, log: CheckInLog, cfg: RunConfig):
        self.log = log
        self.cfg = cfg
        self.matrix = bl.UserPoiMatrix(log)
        self.weights = cfg.usg.weights()
        self.k_neighbors = cfg.usg.k_neighbors
        try:
            self.geo = bl.fit_geo_model(self.matrix, bin_km=cfg.usg.bin_km,
                                        d_min_km=cfg.usg.d_min_km)
        except DataError:
            # Degenerate geography (a single distance bin, or a law that does
            # not decay with distance): neutral flat model.
            logger.warning("geo fit degenerate; using a flat distance model")
            self.geo = bl.GeoModel(log_a=0.0, b=0.0, d_min_km=cfg.usg.d_min_km)
        self._neighbor_cache: dict[int | None, tuple[np.ndarray, np.ndarray]] = {}
        self._friend_cache: dict[int | None, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._usg_cache: dict[str, np.ndarray] = {}

    def user_int(self, user: str) -> int | None:
        return self.matrix.user_index.get(user)

    def candidates(self, user: str) -> np.ndarray:
        """POI ints the user has not visited, ascending (= id order)."""
        return self.matrix.unvisited(self.user_int(user))

    def candidates_for(self, user: str) -> list[str]:
        return self.matrix.ids(self.candidates(user))

    def neighbors(self, u: int | None) -> tuple[np.ndarray, np.ndarray]:
        if u not in self._neighbor_cache:
            self._neighbor_cache[u] = bl.top_neighbors(
                self.matrix, bl.overlap_counts(self.matrix, u), len(self.matrix.history(u)),
                self.k_neighbors)
        return self._neighbor_cache[u]

    def friends(self, u: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The user's ``friend_weights``: friends, Jaccard intersections, unions."""
        if u not in self._friend_cache:
            self._friend_cache[u] = bl.friend_weights(self.matrix, u)
        return self._friend_cache[u]

    def set_weights(self, weights: UsgWeights) -> None:
        """Swap mixing weights (tuning); invalidates cached mixed scores."""
        self.weights = weights
        self._usg_cache.clear()

    def ubcf_scores(self, user: str, targets: np.ndarray | None = None) -> np.ndarray:
        """Weighted-neighbor visit rate over the top-k cosine-similar users."""
        t = self.candidates(user) if targets is None else targets
        return self.matrix.visit_rate(*self.neighbors(self.user_int(user)))[t]

    def usg_scores(self, user: str, targets: np.ndarray | None = None) -> np.ndarray:
        # Candidate-pool scores are the hot path during evaluation (every
        # model reads them), so cache those per user.
        if targets is None and user in self._usg_cache:
            return self._usg_cache[user]
        u = self.user_int(user)
        t = self.candidates(user) if targets is None else targets
        cf = self.matrix.visit_rate(*self.neighbors(u))[t]
        friends, inter, union = self.friends(u)
        social = self.matrix.visit_rate(friends, inter / union)[t]
        logs = bl.geo_log_scores(self.matrix, self.matrix.history(u), t, self.geo)
        geo = np.exp(logs - logs.max()) if len(t) else logs
        scores = bl.usg_score(bl.max_normalize(cf), bl.max_normalize(social),
                              bl.max_normalize(geo), self.weights)
        if targets is None:
            self._usg_cache[user] = scores
        return scores

    def leave_one_out_c_star(self, user: str) -> np.ndarray:
        """Per visited POI (aligned with ``matrix.history``): its mixed score
        with that POI held out of the history.

        Components are computed in each leave-one-out context and
        max-normalized across the user's POIs before mixing, so the mixture
        weighting stays meaningful within the user.  All held-out POIs are
        rows of one pass over the history's visitor flags: CF ranks the
        overlap counts (the flags' column sums, the user's own set to 0) less
        each POI's visitors as ``top_neighbors`` does (users left at 0 sort
        last and add 0.0),
        and each friend's Jaccard weight loses the POI from the user's side.
        """
        u = self.user_int(user)
        history = self.matrix.history(u)
        visits = bl.visitor_flags(self.matrix, history)
        cf = np.zeros(len(history))
        if len(history) > 1:
            overlap = visits.sum(axis=0)
            overlap[u] = 0
            others = np.flatnonzero(overlap)
            hit = visits[:, others]
            norm = np.sqrt((len(history) - 1) * self.matrix.degree[others])
            sims = (overlap[others] - hit) / norm
            rank = np.argsort(-sims, axis=1, kind="stable")[:, :self.k_neighbors]
            cf = bl.row_shares(np.take_along_axis(sims, rank, 1), np.take_along_axis(hit, rank, 1))
        friends, inter, union = self.friends(u)
        lost = visits[:, friends]
        social = bl.row_shares((inter - lost) / (union - 1 + lost), lost)
        # Each held-out POI is its own one-POI geo normalization set, so its
        # geo score is exp(0) = 1.
        geo = np.ones(len(history))
        return bl.usg_score(bl.max_normalize(cf), bl.max_normalize(social),
                            bl.max_normalize(geo), self.weights)


class _RankedRecommender:
    """Shared recommend() and score() on top of a per-user score vector."""

    name = "base"

    def __init__(self, components: UsgComponents):
        self.components = components

    def scores(self, user: str, targets: np.ndarray | None = None) -> np.ndarray:
        """Score vector over ``targets`` (POI ints; default the candidate pool)."""
        raise NotImplementedError

    def score(self, user: str, candidates: list[str]) -> dict[str, float]:
        index = self.components.matrix.poi_index
        targets = np.fromiter((index[p] for p in candidates), np.intp, len(candidates))
        return dict(zip(candidates, self.scores(user, targets).tolist()))

    def recommend(self, user_id: str, n: int) -> list[str]:
        candidates = self.components.candidates(user_id)
        if not len(candidates):
            return []
        top, _ = bl.rank_top_n(self.scores(user_id), n)
        return self.components.matrix.ids(candidates[top])


class UbcfRecommender(_RankedRecommender):
    name = "ubcf"

    def scores(self, user, targets=None):
        return self.components.ubcf_scores(user, targets)


class UsgRecommender(_RankedRecommender):
    name = "usg"

    def scores(self, user, targets=None):
        return self.components.usg_scores(user, targets)


class _UnivariateRecommender:
    """Threshold framework over USG candidates (shared by both variants)."""

    name = "usgt"
    uniform_influence = False

    def __init__(self, components: UsgComponents, cfg: RunConfig):
        self.components = components
        self.cfg = cfg.univariate
        self.offset = cfg.utc_offset_seconds()
        self.poi_act = uv.poi_acts(components.log, self.offset)
        self._profiles: dict[str, uv.UserActProfile | None] = {}

    def _profile(self, user: str) -> uv.UserActProfile | None:
        if user not in self._profiles:
            try:
                if self.uniform_influence:
                    u = self.components.user_int(user)
                    c_star = np.ones(len(self.components.matrix.history(u)))
                else:
                    c_star = self.components.leave_one_out_c_star(user)
                self._profiles[user] = uv.effective_user_act(
                    user, self.components.log, self.cfg, c_star, self.offset)
            except DataError:
                self._profiles[user] = None
        return self._profiles[user]

    def recommend(self, user_id: str, n: int) -> list[str]:
        """The top n of the USG pool, re-composed by ``m_avg_recommend`` when
        the user's effective act clears t (inclusive)."""
        candidates = self.components.candidates(user_id)
        if not len(candidates):
            return []
        scores = self.components.usg_scores(user_id)
        top, _ = bl.rank_top_n(scores, min(self.cfg.k * n, len(candidates)))
        pool = candidates[top]
        profile = self._profile(user_id)
        if profile is not None and profile.act >= self.cfg.t:
            pool = pool[uv.m_avg_recommend(self.poi_act[pool], profile, self.cfg, n)]
        return self.components.matrix.ids(pool[:n])


class UsgtRecommender(_UnivariateRecommender):
    name = "usgt"
    uniform_influence = False


class UbcftRecommender(_UnivariateRecommender):
    name = "ubcft"
    uniform_influence = True


class MatiRecommender(_RankedRecommender):
    """Mixture of shared-activity extent and latent joint depth.

    ``user_profiles`` and ``poi_profiles`` are the users x cells and POIs x
    cells check-in counts of ``all_slab_profiles``, in the components' int
    order.  Shared activity reads only which cells are active, so they are
    kept as booleans, the POIs' transposed to cells × POIs: a query then
    reads only the rows of the user's active cells.  Each POI's active-cell
    count is taken once, here.
    """

    name = "mati"

    def __init__(self, components: UsgComponents, params: MatiTables,
                 user_profiles: np.ndarray, poi_profiles: np.ndarray, phi_t: float):
        super().__init__(components)
        self.user_active = user_profiles > 0
        self.cell_pois = np.ascontiguousarray(poi_profiles.T > 0)
        self.poi_cell_counts = np.count_nonzero(poi_profiles, axis=1)
        self.phi_t = phi_t
        self.depth_means = poi_depth_means(params, components.matrix.pois)

    def user_cells(self, user: str) -> np.ndarray:
        """The user's active cells; none for a user absent from the log."""
        u = self.components.user_int(user)
        return self.user_active[u] if u is not None else np.zeros(self.user_active.shape[1], bool)

    def psi(self, user: str, targets: np.ndarray) -> np.ndarray:
        """Shared activity of the user with each target POI int."""
        return shared_activity(self.user_cells(user), self.cell_pois,
                               self.poi_cell_counts)[targets]

    def scores(self, user, targets=None):
        t = self.components.candidates(user) if targets is None else targets
        pr_nu = self.components.usg_scores(user, targets)
        return mati_mix(self.psi(user, t), pr_nu * self.depth_means[t], self.phi_t)

    # Each model class owns its recommend(), so each can be wrapped on its own.
    recommend = _RankedRecommender.recommend


class HybridRecommender:
    """Route each user to the temporal or non-temporal path by mean overlap.

    A user is routed once, on their top-``PROBE_N`` USG list, so the route and
    the nesting of their top-N lists do not depend on the requested size.
    """

    name = "hybrid"

    def __init__(self, usg: UsgRecommender, mati: MatiRecommender, cfg: HybridConfig):
        self.usg = usg
        self.mati = mati
        self.cfg = cfg
        self.routes: dict[str, Decision | None] = {}

    @property
    def decisions(self) -> list[Decision]:
        """One decision per routed user, in routing order."""
        return [d for d in self.routes.values() if d is not None]

    def _route(self, user_id: str) -> Decision | None:
        if user_id not in self.routes:
            probe = self.usg.recommend(user_id, PROBE_N)
            decision = None
            if probe:
                index = self.mati.components.matrix.poi_index
                rows = [index[p] for p in probe]
                mean_psi = avg_shared_activity(self.mati.user_cells(user_id),
                                               self.mati.cell_pois[:, rows],
                                               self.mati.poi_cell_counts[rows])
                decision = Decision(user_id, mean_psi, decide(mean_psi, self.cfg))
            self.routes[user_id] = decision
        return self.routes[user_id]

    def recommend(self, user_id: str, n: int) -> list[str]:
        if n < 1:
            raise ConfigError(f"list size must be >= 1, got {n}")
        decision = self._route(user_id)
        if decision is None:
            return []
        if decision.path == "temporal":
            return self.mati.recommend(user_id, n)
        return self.usg.recommend(user_id, n)

    def score(self, user_id: str, candidates: list[str]) -> dict[str, float]:
        """Scores from whichever path the user is routed to."""
        decision = self._route(user_id)
        if decision is not None and decision.path == "temporal":
            return self.mati.score(user_id, candidates)
        return self.usg.score(user_id, candidates)


@dataclass
class TrainedModels:
    components: UsgComponents
    slab_artifacts: SlabArtifacts
    params: MatiTables
    em_report: EmReport | None
    user_profiles: np.ndarray
    poi_profiles: np.ndarray
    recommenders: dict[str, object] = field(default_factory=dict)

    def get(self, name: str):
        if name not in self.recommenders:
            raise ConfigError(f"unknown model {name!r}; available: {sorted(self.recommenders)}")
        return self.recommenders[name]


def training_pr_nu(log: CheckInLog) -> np.ndarray:
    """EM's per-pair weights, aligned with the log's ``columns.pairs``: all ones.

    A pair's ``Pr_nu`` is a constant factor of its joint, so the chain's EM
    update never reads it; it only shifts the log-likelihood by a constant.
    The model's ``Pr_nu`` factor is the live USG score, applied at scoring.
    """
    return np.ones(len(log.columns.pairs))


def train_models(log: CheckInLog, cfg: RunConfig,
                 slab_artifacts: SlabArtifacts | None = None,
                 params: MatiTables | None = None) -> TrainedModels:
    """Train every recommender family on the given (training-view) log.

    Given ``params`` trained on this log, EM is skipped and ``em_report`` is
    None.
    """
    components = UsgComponents(log, cfg)
    artifacts = slab_artifacts or build_slab_index(log, cfg)
    user_profiles, poi_profiles = all_slab_profiles(log, artifacts.index)
    if params is None:
        params, report = run_em(log, artifacts.index, training_pr_nu(log),
                                max_iter=cfg.mati.em_max_iter, tol=cfg.mati.em_tol,
                                gamma=cfg.mati.gamma)
    else:
        differ = set(pair_keys(log).tolist()).symmetric_difference(params.pair_keys)
        if differ:
            raise DataError(f"model parameters were trained on a different check-in log "
                            f"({len(differ)} (user, poi) pairs differ)")
        report = None
    usg = UsgRecommender(components)
    mati = MatiRecommender(components, params, user_profiles, poi_profiles, cfg.mati.phi_t)
    recommenders = {model.name: model for model in (
        UbcfRecommender(components), usg, UsgtRecommender(components, cfg),
        UbcftRecommender(components, cfg), mati, HybridRecommender(usg, mati, cfg.hybrid))}
    return TrainedModels(components, artifacts, params, report,
                         user_profiles, poi_profiles, recommenders)
