"""Online merging optimizers, offline model merging, and a toy DPO harness."""

from .errors import (
    EmptyInput,
    FormatError,
    InvalidBeta,
    InvalidConfig,
    InvalidProbability,
    MergeOptError,
    MisalignedSets,
    MissingBaseModel,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteResult,
)
from .kernels import (
    MergeMethod,
    MergeSpec,
    offline_merge,
    sign_consensus,
    sparsify_random,
    sparsify_top_p,
)
from .masks import MaskKey, bernoulli_mask, mask_uniforms
from .optim import (
    AdamHyper,
    MergeVariant,
    OnlineMergeConfig,
    OptimizerState,
    adam_step,
    childtuning_step,
    ema_update,
    full_merge_step,
    ondare_step,
    onties_step,
    stepk_step,
)
from .params import (
    ParameterSet,
    apply_delta,
    check_aligned,
    delta,
    load_checkpoint,
    save_checkpoint,
)
from .policy import (
    ToyPolicy,
    class_loss_and_grad,
    dpo_loss,
    dpo_loss_and_grad,
    log_softmax,
)
from .tasks import (
    LabeledSet,
    PreferenceSet,
    SuiteSizes,
    TaskSuite,
    gen_task_suite,
    oracle_pretrain_accuracy,
)
from .training import (
    MetricsRecord,
    RunConfig,
    RunMetrics,
    TrainResult,
    make_suite,
    train_run,
)

__version__ = "0.1.0"
