import ionpulse


def test_public_names_are_pinned():
    # the package re-exports each module's __all__; a name added to or
    # dropped from one of them changes the public surface
    assert sorted(ionpulse.__all__) == [
        "AlternatingTarget",
        "BellTarget",
        "CoherentTarget",
        "DEFAULT_ETA",
        "DEFAULT_OMEGA_RAD_S",
        "EXCITED",
        "EntangledCarrierTarget",
        "FockTarget",
        "GROUND",
        "HamiltonianMatrix",
        "JointState",
        "ParityCoherentTarget",
        "PhaseStateTarget",
        "PhysicalParams",
        "Pulse",
        "PulseSchedule",
        "RabiUnderflowError",
        "RabiValue",
        "SuperpositionTarget",
        "SynthesisReport",
        "TargetState",
        "TruncationOverflowError",
        "__version__",
        "apply_pulse",
        "apply_pulse_amplitudes",
        "build_hamiltonian",
        "compile_target",
        "default_fock_dim",
        "fidelity",
        "propagate",
        "rabi_column",
        "rabi_frequency",
        "run_schedule",
        "target_state_vector",
        "verify_report",
        "verify_schedule",
    ]
    for name in ionpulse.__all__:
        assert hasattr(ionpulse, name), name
