"""Polytopal DG solver for coupled multi-compartment poroelasticity and Stokes flow."""

__version__ = "0.1.0"

from .agglomerate import AgglomerationConfig, agglomerate, validate_partition
from .manufactured import ManufacturedCase, residual_oracle, steady_case, unsteady_case
from .mesh import PolyMesh, Face, FaceSet, MeshError, load_mesh, save_mesh, build_faces, quality_report
from .norms import broken_norms, convergence_rates, energy_norm
from .params import PhysicalParams
from .spaces import DGSpace, QuadratureRule, build_space, volume_quadrature, face_quadrature, l2_project
from .stepping import SchemeParams, TimeState, build_stepping_matrices, initial_state, simulate
from .system import SystemMatrices, build_global, build_steady, build_system, structural_checks
