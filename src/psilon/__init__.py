"""L1-weight-normalized networks with path-norm capacity control.

The package covers the full loop: reparameterized layers (L1/L2 weight
normalization, sphere projection, pruning blend), MLP and CReLU residual
architectures with hand-written gradients, the family of Lipschitz bounds
(path norms, the improved residual bound, closed-form length products, the
operator product bound) with enumeration and sampling oracles, sparsity
metrics, and a small training/grid-search harness with a CLI.
"""

from .linalg import make_rng, op_inf_norm, op_inf_one_norm, orthogonal_init
from .reparam import (
    L1PROJ,
    L1WN,
    L2WN,
    NONE,
    NormMode,
    blend,
    proj_l1_sphere,
)
from .nets import (
    NetSpec,
    Network,
    backward,
    crelu,
    effective_weights,
    forward,
    init_network,
    load_network,
    predict,
    save_network,
)
from .pathnorm import (
    PathNormReport,
    analyze_network,
    empirical_lipschitz,
    improved_bound_crelu,
    naive_crelu_path_norm,
    path_norm_enumerate,
    path_norm_mlp,
    product_bound,
    psilon_closed_form_mlp,
    psilon_closed_form_resnet,
)
from .metrics import SparsityReport, near_sparsity, network_sparsity
from .data import CsvSchema, Dataset, SplitSpec, load_csv, split, standardize, synth_task
from .training import (
    DEFAULT_LAMBDA_GRID,
    AdamState,
    MetricsRow,
    OneCycle,
    Regularizer,
    Splits,
    TrainPlan,
    WarmHoldDecay,
    adam_step,
    evaluate,
    grid_search,
    lr_at,
    prune_alpha,
    regularized_loss,
    train_with_state,
)

__version__ = "0.1.0"
