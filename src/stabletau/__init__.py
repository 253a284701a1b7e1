"""Exit times of planar stable processes, their harmonic extension to 3-space,
and verification experiments for Hessian positivity, constant signature,
concavity, and boundary blow-up exponents."""

from .closedform import (
    BallSpec,
    StableParams,
    aux_w,
    aux_w_hess_det,
    ball_exit_constant,
    ball_phi,
    disk_h,
    disk_poisson_density,
    eps_quadratic,
    kernel_K,
    kernel_K_grad,
    kernel_K_hess,
)
from .extension import (
    DiskPhi,
    ExtensionContext,
    HessianSample,
    eval_hessian,
    eval_u,
    eval_u3_slab,
)
from .geom import (
    ClassFParams,
    ConeDomain,
    SupportDomain,
    deform,
    domain_gap,
    load_domain,
    save_domain,
)
from .quad import QuadSpec, integrate
from .wos import (
    ExitRadiusLaw,
    PhiField,
    WalkConfig,
    WalkEstimate,
    build_field,
    estimate_phi,
    load_field,
    sample_exit,
    save_field,
)

__all__ = [
    "BallSpec", "ClassFParams", "ConeDomain", "DiskPhi", "ExitRadiusLaw",
    "ExtensionContext", "HessianSample", "PhiField", "QuadSpec",
    "StableParams", "SupportDomain", "WalkConfig", "WalkEstimate",
    "aux_w", "aux_w_hess_det", "ball_exit_constant", "ball_phi",
    "build_field", "deform", "disk_h", "disk_poisson_density",
    "domain_gap", "eps_quadratic", "estimate_phi", "eval_hessian",
    "eval_u", "eval_u3_slab", "integrate",
    "kernel_K", "kernel_K_grad", "kernel_K_hess", "load_domain",
    "load_field", "sample_exit", "save_domain", "save_field",
]

__version__ = "0.1.0"
