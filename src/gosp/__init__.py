"""Oriented site percolation with general finite neighbourhoods.

Simulation library and CLI: exact small-instance dynamics, reproducible
Monte Carlo on a counter-mode hash field, and estimators for supercritical
phase observables (survival, limit shape, edge speeds, extinction times,
renormalisation block events).
"""

__version__ = "0.2.0"

from .model import (
    NeighborhoodSpec,
    NormalizedModel,
    ModelError,
    validate,
    lattice_index,
    load_model,
)
from .field import FieldSpec, MIXER_ID, spawn_seed, spawn_seeds
from .dynamics import (
    evolve,
    dual_evolve,
    batch_evolve,
    reaches,
    dual_reaches,
)
from .estimators import (
    Estimate,
    EstimatorError,
    EstimatorRefused,
    survival_curve,
    critical_point,
    shape_and_time_constants,
    edge_speeds,
    death_bound_fit,
    subcritical_decay,
    torus_stats,
    density_spectrum,
    crossing_probability,
    bg_event_probability,
    good_block_probability,
    primal_dual_meet,
    restricted_cone_survival,
    box_infection_probe,
    path_crossing_transfer,
)

__all__ = [
    "NeighborhoodSpec",
    "NormalizedModel",
    "ModelError",
    "validate",
    "lattice_index",
    "load_model",
    "FieldSpec",
    "MIXER_ID",
    "spawn_seed",
    "spawn_seeds",
    "evolve",
    "dual_evolve",
    "batch_evolve",
    "reaches",
    "dual_reaches",
    "Estimate",
    "EstimatorError",
    "EstimatorRefused",
    "survival_curve",
    "critical_point",
    "shape_and_time_constants",
    "edge_speeds",
    "death_bound_fit",
    "subcritical_decay",
    "torus_stats",
    "density_spectrum",
    "crossing_probability",
    "bg_event_probability",
    "good_block_probability",
    "primal_dual_meet",
    "restricted_cone_survival",
    "box_infection_probe",
    "path_crossing_transfer",
    "__version__",
]
