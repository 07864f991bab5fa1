"""dlbac: metadata-driven access control with a trainable decision engine.

Pipeline: synthesize or ingest authorization-tuple datasets, encode the raw
categorical metadata, train a sigmoid-output network, serve grant/deny
decisions, and explain them via integrated gradients and a distilled
decision tree.
"""

from .dataset import (
    AuthorizationTuple,
    CsvSchema,
    Dataset,
    Rule,
    SynthConfig,
    generate_entities,
    generate_rules,
    generate_tuples,
    ingest_csv,
    metadata_names,
    parse_dataset,
    project_visible,
    serialize_dataset,
    split_dataset,
    synthesize,
)
from .distill import (
    DistilledTree,
    ExtractedRule,
    distill,
    extract_rule,
    fidelity,
    fit_tree,
    load_tree,
    save_tree,
    soft_labels,
    tree_predict,
)
from .encoding import (
    Encoder,
    active_columns,
    build_encoder,
    encode_dataset,
    encode_pair,
    encode_positions,
    load_encoder,
    save_encoder,
)
from .engine import (
    Decision,
    MetadataStore,
    build_store,
    decide,
    format_decision,
    serve,
)
from .errors import (
    ConfigError,
    ConflictError,
    DlbacError,
    FormatError,
    IngestError,
    NotFoundError,
    SynthesisError,
)
from .interpret import (
    Attribution,
    FlipCurve,
    aggregate,
    flip_study,
    global_explain,
    insignificance_check,
    integrated_gradients,
    local_explain,
    significance_order,
)
from .metrics import Confusion, MetricsReport, OpMetrics, evaluate, report_to_csv, score
from .neuralnet import (
    AdamState,
    Network,
    NetworkConfig,
    TrainConfig,
    TrainReport,
    adam_step,
    backward,
    forward,
    forward_active,
    forward_positions,
    init_network,
    input_gradient,
    load_model,
    loss,
    save_model,
    train,
)
from .rng import SplitMix64
