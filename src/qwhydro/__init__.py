"""Quantum-walk hydrodynamics: lattice Dirac walks, Madelung observables,
dispersive shocks and their cusp-caustic asymptotics."""

__version__ = "0.1.0"

from .walk import (  # noqa: F401
    SpinorField,
    Trajectory,
    WalkParams,
    build_walk,
    dirac_residual,
    evolve,
    march,
    propagate,
    step_walk,
    total_norm,
)
from .hydro import (  # noqa: F401
    CurrentField,
    HydroField,
    PhaseField,
    TensorField,
    currents,
    hydro_vars,
    madelung_residuals,
    phases,
    quantum_pressure_gradient,
    spinor_from_hydro,
    stress_energy_conservation_residual,
    stress_energy_hydro,
    stress_energy_spinor,
)
from .initial import (  # noqa: F401
    ModeSpec,
    ShockInitSpec,
    multimode_benchmark,
    phase_modulated_state,
    plane_wave,
    schrodinger_initial,
    single_cosine,
)
from .schrodinger import (  # noqa: F401
    Wavefunction,
    greens_propagate,
    schrodinger_hydro,
    single_shock_psi,
    spectral_propagate,
)
from .asymptotics import (  # noqa: F401
    PearceyPoint,
    ShockChart,
    Zone,
    airy,
    classify_zone,
    pearcey,
    pearcey_shock_approx,
    saddle_points,
    shock_map,
    shock_zone_value,
)
from .nonrel import (  # noqa: F401
    NRFields,
    component_relation_residual,
    deltas_first_order,
    deltas_second_order,
    hydro_second_order,
    nonrel_compare,
    strip_rest_phase,
)
