"""Fleet-growth and predator-prey competition forecasting for the UK
vehicle transition, with calibration, sensitivity analysis and hydrogen
refuelling-infrastructure planning.

The public names below are imported from their submodules on first
access, so `import fleetdyn` loads no numpy: only `calibration`, which
fits data with arrays, imports it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "analytics": (
            "Equilibrium", "SensitivityVector", "StabilityClass", "asymptotic_state",
            "classify_stability", "discriminant", "finite_difference_sensitivity", "pseudo_log",
            "sensitivity_conventional", "sensitivity_hydrogen",
        ),
        "calibration": (
            "FitResult", "FleetSeries", "FuelMassModel", "bundled_uk_fleet_series",
            "derive_growth_params", "fit_growth", "load_fleet_csv", "mean_error",
            "pointwise_error",
        ),
        "dynamics": (
            "ClassicalLvmParams", "Field", "FleetState", "GrowthParams", "LvmParams", "Trajectory",
            "classical_system", "growth_closed_form", "growth_system", "integrate",
            "lv_conserved_quantity", "modified_system",
        ),
        "errors": (
            "DegenerateCaseError", "FitError", "IntegrationError", "ModelError", "OracleError",
            "ParseError", "ValidationError",
        ),
        "infrastructure": (
            "DeploymentPlan", "PetrolEquivalence", "StationSpec", "VehicleSpec", "deployment_plan",
            "petrol_equivalence", "stations_per_year", "vehicles_per_station",
        ),
        "scenarios": (
            "ScenarioSpec", "TargetCheck", "builtin_scenario", "compare_targets",
            "new_hydrogen_vehicles_per_year", "run_scenario", "zev_share",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import a public name from its submodule and keep it in this namespace."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
