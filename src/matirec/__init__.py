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
from .mati import (ChainLayout, EmReport, MatiParams, SlabIncidence, chain_factorization, e_step,
                   joint_prob, m_step, mati_mix, poi_depth_means, psi_shared_activity, run_em)
from .pipeline import TrainedModels, build_slab_index, train_models
from .sampling import SamplingState, UserStrata, collect_until, sample_round, stratify_users
from .slabs import (MultiAspectSlab, SlabIndex, SlabProfile, SlotSimilarityMatrix,
                    TemporalFactorSpec, UniAspectSlab, aggregate_similarity, complete_matrix,
                    cross_slabs, day_factor, entity_slab_profile, hac_complete_linkage,
                    hour_factor, slot_pair_similarity, user_slot_vectors)
from .univariate import (PoiAct, UnivariateConfig, UserActProfile, absolute_poi_act,
                         absolute_user_act, effective_user_act, is_weekend, m_avg_recommend,
                         poi_act, user_poi_probs, usgt_recommend)

__version__ = "0.1.0"
