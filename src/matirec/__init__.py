"""Temporal-slab POI recommendation: ingest, slab extraction, latent model,
hybrid recommendation, and exclusion-protocol evaluation."""

from .baselines import (GeoModel, UserPoiMatrix, UsgWeights, fit_geo_model, haversine_km,
                        max_normalize, rank_top_n, usg_score)
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, InvariantError, MatirecError
from .evaluation import EvalReport, EvalSplit, evaluate, failure_rate, metrics_at_n, split_exclude, tune_sweep
from .hybrid import HybridConfig, avg_shared_activity, decide
from .ingest import (CheckIn, CheckInLog, ColumnFormat, DatasetStats, dataset_stats,
                     parse_checkins, parse_social, serialize_log)
from .mati import (ChainLayout, ChainStack, EmReport, MatiParams, chain_factorization, mati_mix,
                   poi_depth_means, run_em, shared_activity)
from .pipeline import TrainedModels, build_slab_index, train_models
from .sampling import SamplingState, UserStrata, collect_until, sample_round, stratify_users
from .slabs import (SlabIndex, SlotSimilarityMatrix, TemporalFactorSpec, UniAspectSlab,
                    aggregate_similarity, complete_matrix, day_factor, hac_complete_linkage,
                    hour_factor, slot_pair_cosines)
from .univariate import (PoiAct, UnivariateConfig, UserActProfile, effective_user_act,
                         is_weekend, m_avg_recommend, usgt_recommend)

__version__ = "0.1.0"
