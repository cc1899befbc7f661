import gsync


def test_public_names():
    assert sorted(gsync.__all__) == [
        "AxisBox", "Ball", "CatMap", "ContractionCertificate", "CoordinateProjection",
        "CustomObservation", "CustomStateMap", "CustomSystem", "DerivativeProfile",
        "DiscreteSystem", "Esn", "HolderFit", "InputRange", "InvarianceCheck",
        "InvariantRegion", "LinearDelay", "LinearObservation", "LipschitzBounds",
        "ObservationMap", "OdeFlow", "PowerSine", "RegionIntersection", "SampledGS",
        "StateMap", "SweepResult", "TorusRotation", "Trajectory", "WeightingSequence",
        "absorbing_set", "certify", "check_equivariance", "check_invariance",
        "compare_gs", "contraction", "cos_range", "delay_window", "derivative_profile",
        "diagnostics", "drive_gs", "dynsys", "errors", "esp_convergence", "gs",
        "holder_exponent", "input_forgetting", "lipschitz_bounds", "lorenz_field",
        "lorenz_system", "multistability_sweep", "observe_trajectory", "psi_iterate_gs",
        "recursion_residual", "regions", "run_recursion", "shift_matrix", "sin_range",
        "statemaps", "tangent_norm_bounds", "weighted_distance", "write_gs_csv",
    ]
