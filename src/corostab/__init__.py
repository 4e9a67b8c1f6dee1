"""corostab: isotropic finite-strain hyperelasticity, homogeneous test
protocols, incremental moduli and numerical constitutive-stability checks."""

from .materials import (
    ElasticConstants,
    MaterialModel,
    StretchState,
    instantiate_model,
)
from .protocols import (
    CurveTable,
    Protocol,
    driving_stress,
    incremental_moduli,
    lateral_closure,
    sweep,
)
from .stability import (
    be_te_check,
    hill_tangent,
    lh_ellipticity_probe,
    region_scan,
    tsts_tangent,
    two_point_monotonicity,
)

__version__ = "0.1.0"

__all__ = [
    "CurveTable",
    "ElasticConstants",
    "MaterialModel",
    "Protocol",
    "StretchState",
    "be_te_check",
    "driving_stress",
    "hill_tangent",
    "incremental_moduli",
    "instantiate_model",
    "lateral_closure",
    "lh_ellipticity_probe",
    "region_scan",
    "sweep",
    "tsts_tangent",
    "two_point_monotonicity",
]
