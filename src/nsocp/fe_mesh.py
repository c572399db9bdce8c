"""Friedrichs-Keller triangulation of the unit square and P1 assembly.

Homogeneous Dirichlet boundary conditions; only interior nodes carry
degrees of freedom. The stiffness matrix on this mesh coincides with the
classical five-point stencil (diagonal 4, neighbors -1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .sparse_core import CsrMatrix

__all__ = [
    "MeshError",
    "TriMesh",
    "FeSpace",
    "FeFunction",
    "FeOperators",
    "build_mesh",
    "build_space",
    "assemble_operators",
    "interpolate",
    "linf_nodal_error",
    "export_vtk",
]


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class TriMesh:
    m: int
    vertices: np.ndarray    # ((m+1)^2, 2)
    triangles: np.ndarray   # (2 m^2, 3), positively oriented
    h: float


@dataclass(frozen=True)
class FeSpace:
    mesh: TriMesh
    interior_nodes: np.ndarray  # vertex indices, lexicographic in (j, i)
    n: int

    def zero(self) -> "FeFunction":
        return FeFunction(self, np.zeros(self.n))

    def function(self, coeffs: np.ndarray) -> "FeFunction":
        return FeFunction(self, np.asarray(coeffs, dtype=float))


@dataclass(frozen=True)
class FeFunction:
    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.space.n,):
            raise MeshError("coefficient vector length does not match space dimension")


@dataclass(frozen=True)
class FeOperators:
    """P1 operators on the interior nodes. A and M are scipy CSR matrices in
    canonical form; the lumped mass D = diag(d) is kept as d."""

    space: FeSpace
    A: CsrMatrix  # stiffness
    M: CsrMatrix  # consistent mass
    d: np.ndarray  # lumped mass, d_i = |supp phi_i| / 3


def build_mesh(m: int) -> TriMesh:
    """Uniform triangulation of [0,1]^2, each cell split along its
    bottom-left to top-right diagonal."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise MeshError("mesh subdivisions must be an integer")
    if m < 2:
        raise MeshError("need at least 2 subdivisions per side")
    xs = np.arange(m + 1) / m
    jj, ii = np.meshgrid(xs, xs, indexing="ij")  # row j (y), column i (x)
    vertices = np.column_stack([ii.ravel(), jj.ravel()])  # index = j*(m+1)+i

    j, i = np.divmod(np.arange(m * m, dtype=np.int64), m)
    v00 = j * (m + 1) + i
    v11 = v00 + m + 2
    tris = np.stack([v00, v00 + 1, v11, v00, v11, v00 + m + 1], axis=1).reshape(-1, 3)
    return TriMesh(m=m, vertices=vertices, triangles=tris, h=1.0 / m)


def build_space(mesh: TriMesh) -> FeSpace:
    m = mesh.m
    j, i = np.divmod(np.arange((m - 1) ** 2, dtype=np.int64), m - 1)
    interior = (j + 1) * (m + 1) + i + 1
    return FeSpace(mesh=mesh, interior_nodes=interior, n=(m - 1) ** 2)


def assemble_operators(space: FeSpace) -> FeOperators:
    mesh = space.mesh
    tri = mesh.triangles
    p = mesh.vertices[tri]  # (nt, 3, 2)

    x = p[:, :, 0]
    y = p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    # for this mesh area = h^2/2 > 0 on every triangle
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area[:, None, None])

    me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * me_ref[None, :, :]

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = len(mesh.vertices)
    a_full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    m_full = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()

    d_full = np.zeros(nv)
    np.add.at(d_full, tri.ravel(), np.repeat(area / 3.0, 3))

    ix = space.interior_nodes
    a_int = a_full[np.ix_(ix, ix)]
    m_int = m_full[np.ix_(ix, ix)]
    return FeOperators(
        space=space,
        A=CsrMatrix.from_scipy(a_int),
        M=CsrMatrix.from_scipy(m_int),
        d=d_full[ix],
    )


def interpolate(space: FeSpace, g: Callable) -> FeFunction:
    """Nodal (Lagrange) interpolation at the interior nodes."""
    pts = space.mesh.vertices[space.interior_nodes]
    vals = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, (space.n,)).copy()
    if not np.all(np.isfinite(vals)):
        raise MeshError("non-finite value during interpolation")
    return FeFunction(space, vals)


def _full_coeffs(fe: FeFunction) -> np.ndarray:
    full = np.zeros(len(fe.space.mesh.vertices))
    full[fe.space.interior_nodes] = fe.coeffs
    return full


def linf_nodal_error(fe: FeFunction, exact_nodal: FeFunction) -> float:
    if fe.space is not exact_nodal.space:
        raise MeshError("functions live on different spaces")
    return float(np.max(np.abs(fe.coeffs - exact_nodal.coeffs))) if fe.space.n else 0.0


def export_vtk(fields: Sequence[tuple[str, FeFunction]], path) -> None:
    """Legacy ASCII VTK unstructured grid with one scalar array per field.

    Boundary nodes are written with value 0 (homogeneous Dirichlet).
    """
    if not fields:
        raise MeshError("no fields to export")
    space = fields[0][1].space
    for _, fe in fields:
        if fe.space is not space:
            raise MeshError("all fields must share one space")
    mesh = space.mesh
    nv = len(mesh.vertices)
    nt = len(mesh.triangles)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nsocp fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {nv} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g} 0\n")
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {nv}\n")
        for name, fe in fields:
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            full = _full_coeffs(fe)
            for v in full:
                fh.write(f"{v:.17g}\n")
