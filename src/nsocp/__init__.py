"""Optimal control of the non-smooth semilinear PDE -Δy + max(0,y) = u + f.

P1 finite elements on Friedrichs-Keller meshes, a semi-smooth Newton
solver for the limit optimality system, a smoothing continuation solver,
and stationarity diagnostics, plus a manufactured-solution harness.
"""

from .fe_mesh import (
    FeFunction,
    FeOperators,
    FeSpace,
    TriMesh,
    assemble_operators,
    build_mesh,
    build_space,
    export_vtk,
    interpolate,
    linf_nodal_error,
)
from .kkt_solver import (
    IndexSets,
    KktConfig,
    KktPoint,
    ProblemData,
    recover_control,
    solve_kkt,
)
from .sparse_core import CsrMatrix, SingularMatrixError
from .state_solver import (
    NewtonReport,
    StateProblem,
    directional_derivative,
    solve_state,
    solve_state_regularized,
)

__version__ = "0.1.0"
