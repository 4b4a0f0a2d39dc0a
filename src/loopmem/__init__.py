"""Discrete-event polarization simulator for a fiber loop-and-switch memory.

A heralded photon enters through a circulator, a Pockels-cell switch folds it
into a fiber delay loop for N round trips, and the same switch releases it.
The package models the polarization transformation and loss of every passage,
synthesizes coincidence-count data, and provides the reconstruction and fit
tools used to characterize such a memory.
"""

from .components import (
    CIRCULATOR_ARM, COUPLER, FIBER_SEGMENT, FORWARD, FPC, MIRROR, OFF, ON, PBS,
    POCKELS_CELL, RETROREFLECTOR, REVERSE, ComponentSpec, DriveSchedule,
    circulator_operator, fiber_transmission, pockels_level, pockels_operator,
)
from .counting import (
    DecayScan, MalusScan, ScanDataset, TomographyScan, draw_counts,
    malus_mean, read_csv, run_scan, run_scans, synth_malus_dataset, write_csv,
)
from .engine import (
    ExitEvent, MemoryConfig, PathTrace, StorageOutcome, TransmissionParams,
    derive_transmission_params, efficiency, f8_path_trace, simulate_storage,
    simulate_sweep, switch_schedule,
)
from .errors import (
    GainError, IncompleteSetError, InvalidStateError, LoopMemError,
    NoSignalError, SchemaError, UnschedulableError,
)
from .fitting import (
    BudgetReport, DecayFit, MalusFit, default_attenuation_db_per_km, fit_decay,
    fit_malus, lifetime_1e, project_budget, route_inventory,
)
from .polarization import (
    A, D, DensityMatrix, H, JonesOperator, L, PureState, R, V, attenuator,
    birefringent_phase, fidelity, make_pure, rotator,
)
from .scenario import PRESETS, Scenario, preset_scenario, resolve, run
from .tomography import (
    MeasurementSet, ReconstructionResult, counts_from_dataset, exact_mle_bloch,
    exact_mle_fidelities, linear_inversion, mle_reconstruct, monte_carlo_uncertainty,
    reconstruct_with_uncertainty,
)

__version__ = "0.1.0"
