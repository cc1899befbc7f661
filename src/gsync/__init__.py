"""Generalized synchronizations for driven contractive state-space systems.

The package simulates invertible discrete-time dynamical systems, certifies
state-contraction and differentiability conditions for driven state maps,
constructs the resulting synchronization maps by two independent methods,
and provides empirical convergence, forgetting, and regularity diagnostics.
"""

__version__ = "0.1.0"

from .contraction import (ContractionCertificate, InvarianceCheck, OrbitConstants,
                          absorbing_set, certify, check_invariance)
from .diagnostics import (DerivativeProfile, HolderFit, WeightingSequence,
                          derivative_profile, esp_convergence, holder_exponent,
                          input_forgetting, weighted_distance)
from .dynsys import (CatMap, CoordinateProjection, CustomObservation,
                     CustomSystem, DiscreteSystem, LinearObservation,
                     ObservationMap, OdeFlow, TorusRotation, Trajectory,
                     check_equivariance, delay_window, lorenz_field,
                     lorenz_system, observe_trajectory, tangent_norm_bounds)
from .gs import (SampledGS, SweepResult, compare_gs, drive_gs,
                 multistability_sweep, psi_iterate_gs, recursion_residual,
                 run_recursion, write_gs_csv)
from .regions import AxisBox, Ball, InputRange, InvariantRegion, RegionIntersection
from .statemaps import (CustomStateMap, Esn, LinearDelay, LipschitzBounds,
                        PowerSine, StateMap, cos_range, lipschitz_bounds,
                        shift_matrix, sin_range)

__all__ = [name for name in dir() if not name.startswith("_")]
