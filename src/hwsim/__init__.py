"""Simulation and drift-certification toolkit for multiclass many-server
queues in the Halfin-Whitt regime and their controlled diffusion limits."""

from .model import (
    DiffusionSpec,
    PrelimitParams,
    SystemParams,
    allocation_to_control,
    diffusion_spec,
    drift,
    drift_truncated,
    make_system,
    prelimit_params,
    project_simplex,
    scale_state,
    spare_capacity,
    unscale_state,
)
from .lyapunov import (
    Family,
    Goal,
    InfeasibleGoal,
    LyapunovSpec,
    big_psi_star,
    evaluate,
    generator_apply,
    generator_ratio,
    gradient,
    hessian,
    log_value,
    psi,
    psi_d1,
    psi_d2,
    select_parameters,
)
from .measures import EmpiricalMeasure, TailFit, fit_tail
from .verify import (
    PreconditionError,
    Region,
    SamplerConfig,
    VerificationReport,
    verify_abandonment_foster,
    verify_exp_linear_drift,
    verify_exp_linear_foster,
    verify_neg_part_foster,
    verify_neg_part_sub_gaussian_foster,
    verify_sub_gaussian_foster,
)
from .diffusion import (
    ConstantControl,
    DiffusionRun,
    FunctionControl,
    SimConfig,
    StaticPriorityControl,
    StateTableControl,
    check_idleness_identity,
    estimate_rate,
    estimate_tail,
    simulate,
    simulate_policies,
)
from .queues import (
    ArrivalSpec,
    Erlang,
    Exponential,
    FunctionPolicy,
    HyperExp2,
    LogNormal,
    LongestQueueFirstPolicy,
    ProportionalSplitPolicy,
    QueueRun,
    RandomWorkConservingPolicy,
    RenewalLyapunov,
    StaticPriorityPolicy,
    estimate_prelimit_constants,
    generator_consistency_errors,
    prelimit_generator_apply,
    simulate_ctmc,
    simulate_renewal,
    verify_prelimit_foster,
)

__version__ = "0.1.0"
