"""Desk-scale simulator of gradient descent over a block-encoding calculus.

The package exposes four layers: monomial objectives and the box check of
a point (polyfunc), the corner-block encoding calculus with resource
accounting (blockcalc), polynomial approximation of scalar derivatives
(chebyshev), and the descent engines plus the classical reference oracle
(descent, oracle); they take and return Python values.  The CLI (blockgd.cli,
not loaded by the package) reads and writes every document: it checks
configs against the JSON schema (its loaders are load_objective and
load_scalar_function), batch-runs them and emits traces, reports and cost tables.
"""

from .blockcalc import (
    AuditLog,
    BlockEncoding,
    PostSelection,
    amplify,
    apply_postselect,
    diag_encode,
    entry_project,
    lcu,
    product,
    projector_encode,
    qsvt_transform,
    recording,
    scale_down,
)
from .chebyshev import (
    ChebyshevPoly,
    ScalarFunction,
    SeparableObjective,
    approx_derivative,
)
from .descent import (
    CostParams,
    DescentConfig,
    DescentTrace,
    build_gradient_be,
    build_partial_be,
    eta_generic,
    gd_step_generic,
    gd_step_separable,
    initial_state_uniform,
    resource_predict,
    run_generic,
    run_separable,
    separable_transform,
)
from .oracle import OracleTrace, classical_gd
from .polyfunc import MonomialTerm, ObjectiveFunction
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AuditLog",
    "BlockEncoding",
    "ChebyshevPoly",
    "CostParams",
    "DescentConfig",
    "DescentTrace",
    "MonomialTerm",
    "ObjectiveFunction",
    "OracleTrace",
    "PostSelection",
    "ScalarFunction",
    "SeparableObjective",
    "amplify",
    "apply_postselect",
    "approx_derivative",
    "build_gradient_be",
    "build_partial_be",
    "classical_gd",
    "diag_encode",
    "entry_project",
    "errors",
    "eta_generic",
    "gd_step_generic",
    "gd_step_separable",
    "initial_state_uniform",
    "lcu",
    "product",
    "projector_encode",
    "qsvt_transform",
    "recording",
    "resource_predict",
    "run_generic",
    "run_separable",
    "scale_down",
    "separable_transform",
]
