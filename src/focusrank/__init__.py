"""Learning where a multi-location model change continues.

Given the version history of labeled directed graphs, focusrank diffs
consecutive versions, labels (anchor, candidate) node pairs by whether the
candidate's direct successor changed alongside the anchor, embeds node
labels, and trains a small self-attention ranker to order candidates. The
package also ships the comparison rankers (random, label similarity,
historical co-change), a Precision@k evaluation harness with radius-
restricted candidate sets, a deterministic synthetic-corpus generator, and
a pipeline CLI.
"""

__version__ = "0.1.0"

# dataset loads before baselines, the module order of earlier releases: the
# other order alone moved perfbench's rank-query p50 by ~15% (CHANGES.md).
from .dataset import (
    BalanceConfig,
    DatasetSplit,
    LabeledPair,
    balance,
    label_pairs,
    split_cross_project,
    split_temporal,
)
from .baselines import CoChangeMatrix, build_cochange, rank_random
from .datagen import GenConfig, build_corpus, describe, write_corpus
from .embedding import HashedProvider, ProviderConfig, RemoteConfig, make_provider
from .errors import FocusRankError
from .evaluation import (
    EvalReport,
    RankedList,
    aggregate_by_project,
    dynamic_k,
    evaluate,
    precision_at_k,
    radius_filter,
)
from .graphs import (
    ChangeRadius,
    Diff,
    ModelGraph,
    Project,
    change_radius,
    diff,
    load_corpus,
    load_project,
    save_project,
    union_graph,
)
from .ranker import (
    Checkpoint,
    LossConfig,
    RankerParams,
    TrainConfig,
    batch_loss,
    forward,
    grad,
    load_checkpoint,
    per_sample_loss,
    predict_proba,
    save_checkpoint,
    train,
)
from .stats import mann_whitney_u, spearman_rho

__all__ = [
    "BalanceConfig",
    "ChangeRadius",
    "Checkpoint",
    "CoChangeMatrix",
    "DatasetSplit",
    "Diff",
    "EvalReport",
    "FocusRankError",
    "GenConfig",
    "HashedProvider",
    "LabeledPair",
    "LossConfig",
    "ModelGraph",
    "Project",
    "ProviderConfig",
    "RankedList",
    "RankerParams",
    "RemoteConfig",
    "TrainConfig",
    "aggregate_by_project",
    "balance",
    "batch_loss",
    "build_cochange",
    "build_corpus",
    "change_radius",
    "describe",
    "diff",
    "dynamic_k",
    "evaluate",
    "forward",
    "grad",
    "label_pairs",
    "load_checkpoint",
    "load_corpus",
    "load_project",
    "make_provider",
    "mann_whitney_u",
    "per_sample_loss",
    "precision_at_k",
    "predict_proba",
    "radius_filter",
    "rank_random",
    "save_checkpoint",
    "save_project",
    "spearman_rho",
    "split_cross_project",
    "split_temporal",
    "train",
    "union_graph",
    "write_corpus",
]
