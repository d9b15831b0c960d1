"""Semi-supervised record-pair classification with adversarial label generation.

The pipeline: load or synthesize record-pair instances, partition the
feature space by median splits, select a diverse seed set to label, then
alternately train a label generator against a discriminator while
propagating the most confidently pseudo-labeled instances into the
training pool until the whole pool is labeled.
"""

from .datasets import (
    MATCH,
    NON_MATCH,
    GoldStandard,
    IngestError,
    InstancePool,
    Record,
    RecordSet,
    SyntheticConfig,
    generate_synthetic,
    load_gold,
    load_records,
    read_instance_file,
    read_labels_file,
    save_gold,
    write_instance_file,
    write_labels_file,
)
from .diversity import (
    SubspacePartition,
    build_partition,
    compute_medians,
    diverse_sample,
    load_partition,
    save_partition,
)
from .evaluation import (
    MetricsReport,
    aggregate,
    compute_metrics,
    evaluate_run,
    run_ablation_suite,
    split_pool,
)
from .features import featurize_pair, featurize_to_file
from .nn import (
    MlpModel,
    OptState,
    forward_batch,
    init_mlp,
    load_model,
    save_model,
)
from .training import (
    RunResult,
    RunState,
    TrainConfig,
    inner_train,
    predict,
    propagate,
    run,
    select_seed_labels,
)

__version__ = "0.1.0"
