"""Quantum-walk hydrodynamics: lattice Dirac walks, Madelung observables,
dispersive shocks and their cusp-caustic asymptotics."""

__version__ = "0.1.0"
