"""Projection-constrained robust fine-tuning toolkit.

Optimizers that keep fine-tuned weights inside learnable MARS-norm balls
around their pre-trained anchors, the baselines they are measured against, a
Lipschitz-robustness auditor, and a synthetic distribution-shift benchmark
harness.
"""

from .audit import estimate_diff_lipschitz_lb, verify_lemma1_bound
from .baselines import (
    AdamW,
    BaseOnlyOptimizer,
    MarsSpOptimizer,
    Sgd,
    TpgmOptimizer,
    freeze_mask,
    l2_sp_grad,
    make_base_optimizer,
    wise_interpolate,
    wise_interpolate_params,
)
from .errors import (
    ConfigError,
    DomainError,
    PersistenceError,
    RunError,
    StateError,
    UnsupportedShapeError,
)
from .ftp import (
    FtpOptimizer,
    GammaState,
    ManagedParam,
    adam_update_gamma,
    anneal_gradient,
    hyper_gradient,
    make_managed,
    rebase_anchor,
)
from .hyperlr import HyperLrState, HyperSgd, hyper_sgd_lr_step
from .model import (
    Batch,
    MlpSpec,
    backward,
    evaluate_loss,
    finite_diff_grad,
    forward,
    init_params,
)
from .numerics import SeededRng, mars_norm
from .projection import ProjectionView, canonicalize, project_rows

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "BaseOnlyOptimizer",
    "Batch",
    "ConfigError",
    "DomainError",
    "FtpOptimizer",
    "GammaState",
    "HyperLrState",
    "HyperSgd",
    "ManagedParam",
    "MarsSpOptimizer",
    "MlpSpec",
    "PersistenceError",
    "ProjectionView",
    "RunError",
    "SeededRng",
    "Sgd",
    "StateError",
    "TpgmOptimizer",
    "UnsupportedShapeError",
    "adam_update_gamma",
    "anneal_gradient",
    "backward",
    "canonicalize",
    "estimate_diff_lipschitz_lb",
    "evaluate_loss",
    "finite_diff_grad",
    "forward",
    "freeze_mask",
    "hyper_gradient",
    "hyper_sgd_lr_step",
    "init_params",
    "l2_sp_grad",
    "make_base_optimizer",
    "make_managed",
    "mars_norm",
    "project_rows",
    "rebase_anchor",
    "verify_lemma1_bound",
    "wise_interpolate",
    "wise_interpolate_params",
]
