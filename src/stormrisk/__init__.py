"""
stormrisk: hurricane wind fields and infrastructure failure risk.

A numpy/scipy library for building parametric storm wind fields over a
spatial grid, driving a nonhomogeneous Poisson failure model with them,
delimiting the critical damage zone, fitting region-aggregate damage/loss
power laws, and regressing observed outages on storm exposure.
"""

from .aggregate import (
    RepairParams,
    damage_loss_sweep,
    fit_damage_model,
    fit_loss_model,
    g_of_vm,
    save_agg_sweep,
)
from .critzone import (
    axisymmetric_zone_area,
    critical_radius,
    critical_zone_numeric,
    fit_crit_area,
    fit_crit_radius,
    fit_power_law_vm_only,
    obround_area,
    save_zone_sweep,
    storm_swath,
    sweep_critical_radius,
    tables123,
    zone_failure_stats,
    zone_sweep,
)
from .ensemble import (
    Ensemble,
    EnsemblePerturbationSpec,
    SyntheticEnsemble,
    generate_synthetic_ensemble,
    load_ensemble,
    member_parameters,
    save_ensemble,
)
from .fitting import LinearFit, linear_least_squares
from .glm import (
    GlmFit,
    OutageObservation,
    fit_binomial,
    inv_logit,
    load_observations,
    logit,
    save_observations,
)
from .grid import (
    County,
    CountySet,
    Grid,
    TimeAxis,
    county_average,
    load_county_fixture,
    save_county_fixture,
)
from .nhpp import (
    FailureDistribution,
    NhppParams,
    default_n_max,
    expected_failures_saturated,
    failure_rate,
    fd_a,
    fd_b,
    fr1,
    fr2,
    member_rates,
    nominal_rate,
    poisson_intensity,
    poisson_pmf,
    saturated_distribution,
    save_failure_distribution,
    save_failure_rate_field,
)
from .wind import (
    HollandParams,
    Track,
    WindField,
    holland_speed,
    save_wind_field,
    wind_field,
)

__version__ = "0.1.0"
