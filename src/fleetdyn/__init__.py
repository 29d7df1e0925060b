"""Fleet-growth and predator-prey competition forecasting for the UK
vehicle transition, with calibration, sensitivity analysis and hydrogen
refuelling-infrastructure planning.
"""

from .analytics import (
    Equilibrium,
    SensitivityVector,
    StabilityClass,
    asymptotic_state,
    classify_stability,
    discriminant,
    finite_difference_sensitivity,
    pseudo_log,
    sensitivity_conventional,
    sensitivity_hydrogen,
)
from .calibration import (
    FitResult,
    FleetSeries,
    FuelMassModel,
    bundled_uk_fleet_series,
    derive_growth_params,
    fit_growth,
    load_fleet_csv,
    mean_error,
    pointwise_error,
)
from .dynamics import (
    ClassicalLvmParams,
    Field,
    FleetState,
    GrowthParams,
    LvmParams,
    Trajectory,
    classical_system,
    growth_closed_form,
    growth_system,
    integrate,
    lv_conserved_quantity,
    modified_system,
)
from .errors import (
    DegenerateCaseError,
    FitError,
    IntegrationError,
    ModelError,
    NoFixedPointError,
    OracleError,
    ParseError,
    ValidationError,
)
from .infrastructure import (
    DeploymentPlan,
    PetrolEquivalence,
    StationSpec,
    VehicleSpec,
    deployment_plan,
    petrol_equivalence,
    stations_per_year,
    vehicles_per_station,
)
from .scenarios import (
    ScenarioSpec,
    TargetCheck,
    builtin_scenario,
    compare_targets,
    new_hydrogen_vehicles_per_year,
    run_scenario,
    zev_share,
)

__version__ = "0.1.0"
