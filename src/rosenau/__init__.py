"""Kinetic approximations to the 1-D heat equation and their large-time diagnostics."""

from .kernels import (
    BackgroundKernel,
    atomic_kernel,
    b_epsilon,
    bernoulli_kernel,
    generator_symbol,
    kernel_by_name,
    kernel_moment,
    rosenau_kernel,
    tabulated_kernel,
)
from .spectral import (
    GridSpec,
    MixedDistribution,
    SpectralField,
    default_grid,
    delta_field,
    dilate,
    field_from_symbol,
    forward_transform,
    gaussian_field,
    gaussian_reference,
    heat_propagate,
    inverse_transform,
    load_distribution,
    regularized_propagator,
    regularized_solution,
    rosenau_propagate,
    save_distribution,
    singular_split,
)
from .wild import (
    WildTruncation,
    cd_wild_solution,
    truncation_order,
    wild_partial_sum,
    wild_solution,
)
from .metrics import (
    MetricReport,
    convex_functional,
    ds_distance,
    l1_norm,
    moment,
)
from .analysis import (
    AppendixReport,
    BoundCheck,
    RateFit,
    SweepPoint,
    appendix_report,
    d2_bound_check,
    d3_bound_check,
    exact_decay_check,
    frame_scale,
    gaussian_initial,
    initial_by_name,
    mixture_initial,
    rate_fit,
    rescale,
)

__version__ = "0.1.0"
