"""Friedrichs-Keller triangulation of the unit square and P1 assembly.

Homogeneous Dirichlet boundary conditions; only interior nodes carry
degrees of freedom. The stiffness A, consistent mass M and lumped mass d are
built as the grid stencils of the P1 operators on this mesh; A is the
five-point stencil (diagonal 4, neighbors -1). ``sine_spectrum`` gives the
2-D sine basis of the interior grid, in which A and all of M but one small
term are diagonal, and ``SineSeed`` solves by it in float32 with no
factorisation: A, or the pair system [[A, M~ / alpha], [-M~, A]] on [y; p]
in lexicographic block order. ``pair_operator`` applies, in the same
order, a pair system with M and three diagonals, from A, M and the
diagonals alone, so that ``sparse_core.refine`` can solve it in float64
from the seed with no matrix formed; ``pair_row_scale`` gives the largest
entry of each of its rows. ``PairJacobian`` lays out that pair system once
as a matrix, node by node in nested-dissection order, writes its three
diagonals in place for each step that factorises it, and ``solve``
factorises it: the one LU rung of the KKT and continuation steps. No other
module writes into it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .sparse_core import CsrMatrix, solve_linear

__all__ = [
    "MeshError",
    "TriMesh",
    "FeSpace",
    "FeFunction",
    "FeOperators",
    "build_mesh",
    "build_space",
    "assemble_operators",
    "sine_spectrum",
    "SineSeed",
    "pair_operator",
    "pair_row_scale",
    "PairJacobian",
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


def _dissect(k: int, j0: int, j1: int, i0: int, i1: int, parts: list) -> None:
    """Append the nodes of grid rows j0..j1-1 and columns i0..i1-1 of a
    k-wide grid to ``parts`` in nested-dissection order. A module-level
    function, so that the recursion forms no reference cycle that would keep
    ``parts`` alive until a full garbage collection."""
    if (j1 - j0) * (i1 - i0) <= 4:
        parts.append((np.arange(j0, j1)[:, None] * k + np.arange(i0, i1)).ravel())
    elif j1 - j0 >= i1 - i0:
        mid = (j0 + j1) // 2
        _dissect(k, j0, mid, i0, i1, parts)
        _dissect(k, mid + 1, j1, i0, i1, parts)
        parts.append(mid * k + np.arange(i0, i1))
    else:
        mid = (i0 + i1) // 2
        _dissect(k, j0, j1, i0, mid, parts)
        _dissect(k, j0, j1, mid + 1, i1, parts)
        parts.append(np.arange(j0, j1) * k + mid)


@dataclass(frozen=True)
class FeSpace:
    mesh: TriMesh
    interior_nodes: np.ndarray  # vertex indices, lexicographic in (j, i)
    n: int

    @functools.cached_property
    def nd_order(self) -> np.ndarray:
        """Interior nodes in geometric nested-dissection order (George,
        SIAM J. Numer. Anal. 10, 1973): a rectangle of the grid lists its
        two halves, each dissected in turn, then the grid line between them,
        which separates them for every operator here. Computed on first use.
        """
        k = self.mesh.m - 1
        parts = []
        _dissect(k, 0, k, 0, k, parts)
        return np.concatenate(parts)

    @functools.cached_property
    def spectrum(self) -> tuple:
        """``sine_spectrum`` of this space, computed on first use and read-only."""
        spectrum = sine_spectrum(self)
        for v in spectrum:
            v.flags.writeable = False
        return spectrum

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
    """Grid stencils of the P1 operators on the interior nodes, numbered
    lexicographically in (j, i), so that node (j, i) is row j (m-1) + i:

        A = I (x) T + T (x) I,  T = tridiag(-1, 2, -1) of size m - 1,
        M = (h^2/12) (6 I + I (x) S + S (x) I + E + E^T),  S = L + L^T,  E = L (x) L,
        d = h^2 on every node,

    where L is the shift with ones below the diagonal, so E links node (j, i)
    to node (j+1, i+1) across the diagonal that splits each cell.
    """
    k = space.mesh.m - 1
    h2 = space.mesh.h ** 2
    eye = sp.eye(k, format="csr")
    shift = sp.eye(k, k=-1, format="csr")
    s = shift + shift.T
    t = 2.0 * eye - s
    kron = functools.partial(sp.kron, format="csr")  # the default BSR result can store zeros
    e = kron(shift, shift)
    return FeOperators(
        space=space,
        A=CsrMatrix.from_scipy(kron(eye, t) + kron(t, eye)),
        M=CsrMatrix.from_scipy((h2 / 2) * kron(eye, eye)
                               + (h2 / 12) * (kron(eye, s) + kron(s, eye) + e + e.T)),
        d=np.full(space.n, h2),
    )


def sine_spectrum(space: FeSpace):
    """(phi, lam_a, lam_m): the 2-D sine basis of the interior grid and the
    eigenvalues in it of the stencils of ``assemble_operators``.

    phi is the symmetric orthonormal (m-1) x (m-1) matrix
    phi_ij = sqrt(2/m) sin(i j pi / m), the DST-I, and on a grid X of nodal
    values (row j, column i) X -> phi X phi applies phi (x) phi. With
    theta_j = j pi / m, the (m-1) x (m-1) grids of eigenvalues are

        lam_a[j, i] = (2 - 2 cos theta_j) + (2 - 2 cos theta_i),
        lam_m[j, i] = (h^2/12) (6 + 2 cos theta_j + 2 cos theta_i
                                 + 2 cos theta_j cos theta_i),

    so that (phi (x) phi) A (phi (x) phi) = diag(lam_a) and the same holds
    for lam_m and M~ = (h^2/12) (6 I + I (x) S + S (x) I + S (x) S / 2). Since
    E + E^T = (S (x) S + K (x) K) / 2 with K = L - L^T, M~ is M without its
    one term that is not diagonal there, (h^2/24) K (x) K (Pearson & Wathen,
    Numer. Linear Algebra Appl. 19, 2012).
    """
    m = space.mesh.m
    j = np.arange(1, m)
    # i j reduced mod 2m, exactly, so that every angle is at most 2 pi
    phi = np.sqrt(2.0 / m) * np.sin((np.outer(j, j) % (2 * m)) * (np.pi / m))
    t = 4.0 * np.sin(j * (np.pi / (2 * m))) ** 2  # 2 - 2 cos theta, without cancellation
    c = np.cos(j * (np.pi / m))
    lam_a = t[:, None] + t
    lam_m = (space.mesh.h ** 2 / 12) * (6.0 + 2.0 * c[:, None] + 2.0 * c + 2.0 * np.outer(c, c))
    return phi, lam_a, lam_m


class SineSeed:
    """A solve by the sine transform of the grid (``sine_spectrum``), with no
    factorisation, of A, or of [[A, M~ / alpha], [-M~, A]] when ``alpha`` is
    given, M~ being M without its term (h^2/24) K (x) K.

    A is solved on the lexicographic grid B of a right-hand side as
    phi ((phi B phi) / lam_a) phi. The pair system takes and returns [y; p]
    in lexicographic block order, each block a grid; it reads
    C~ z = f + i g / sqrt(alpha) for z = y + i p / sqrt(alpha) and
    C~ = A - i M~ / sqrt(alpha), which is diagonal in the sine basis and
    regular for every alpha > 0 (Axelsson & Kucherov, Numer. Linear Algebra
    Appl. 7, 2000).

    The seed solves in float32, as its ``dtype`` says, and
    ``sparse_core.refine`` refines from a pair seed in float64, as
    mixed-precision refinement does from a float32 LU (Langou et al., SC
    2006); the stiffness seed preconditions ``sparse_core.cg``. It is an
    approximate inverse in any precision: refinement makes up
    (h^2/24) K (x) K and a step's diagonals, and float32 rounding adds only
    about eps32 cond(A) to the factor by which it contracts. The seed holds
    float32 copies of phi and lam_a, made from the space's cached float64
    ``spectrum``, and no factor; a pair seed also holds its n inverse
    eigenvalues, computed in float64 and kept in complex64.
    """

    dtype = np.dtype(np.float32)

    def __init__(self, space: FeSpace, alpha: float | None = None):
        phi, lam_a, lam_m = space.spectrum
        self._phi, self._lam_a = phi.astype(np.float32), lam_a.astype(np.float32)
        self._root_alpha = None if alpha is None else float(np.sqrt(alpha))
        # 1 / (lam_a - i lam_m / sqrt(alpha)), computed in float64
        self._inv = None if alpha is None else (
            1.0 / (lam_a - (1j / self._root_alpha) * lam_m)).astype(np.complex64)
        self.shape = (space.n if alpha is None else 2 * space.n,) * 2

    def _transform(self, grids: np.ndarray) -> np.ndarray:
        """phi X phi for each (m-1) x (m-1) grid X of ``grids``."""
        return self._phi @ grids @ self._phi

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The seed's system solved for ``b`` of shape ``shape[0]``, in float32."""
        k = len(self._phi)
        b = b.astype(np.float32, copy=False)
        if self._root_alpha is None:
            return self._transform(self._transform(b.reshape(k, k)) / self._lam_a).ravel()
        # Python scalars, so that every product stays in float32 and complex64
        f, g = self._transform(b.reshape(2, k, k))
        z = (f + 1j * (g / self._root_alpha)) * self._inv
        y, p = self._transform(np.stack([z.real, self._root_alpha * z.imag]))
        return np.concatenate([y.ravel(), p.ravel()])


def pair_operator(ops: FeOperators, alpha: float, d_yy, d_pp, d_py=0.0) -> LinearOperator:
    """z -> K z for K = [[A + diag(d_yy), M / alpha], [-M + diag(d_py), A + diag(d_pp)]]
    on [y; p] in the block order of a pair ``SineSeed``, taken from A, M and
    the three diagonals (arrays or scalars), so that no 2n matrix is formed."""
    a, m, n = ops.A, ops.M, ops.space.n

    def matvec(z):
        z = np.ravel(z)  # a LinearOperator may pass a column
        y, p = z[:n], z[n:]
        return np.concatenate([a @ y + d_yy * y + (1.0 / alpha) * (m @ p),
                               a @ p + d_pp * p + (d_py * y - m @ y)])

    return LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=float)


def pair_row_scale(ops: FeOperators, alpha: float, d_yy, d_pp, d_py=0.0) -> np.ndarray:
    """The largest magnitude in each row of ``pair_operator``'s system, in its
    block order, from A, M and the three diagonals with no layout. A maximum
    is exact, so these are the row maxima of ``PairJacobian.at`` bit for bit,
    those of M / alpha too: rounding x (1 / alpha) is monotone in x, so it
    commutes with the max."""
    a, m = ops.A, ops.M
    off = []  # the largest off-diagonal magnitude in each row of A and of M
    for blk in (a, m):
        mag = np.abs(blk.data)
        mag[blk.indices == np.repeat(np.arange(blk.shape[0]), np.diff(blk.indptr))] = 0.0
        off.append(np.maximum.reduceat(mag, blk.indptr[:-1]))
    a_off, m_off = off
    a_diag, m_diag = a.diagonal(), m.diagonal()
    m_row = np.maximum(m_off, np.abs(m_diag)) * (1.0 / alpha)
    return np.concatenate([np.maximum.reduce([a_off, np.abs(a_diag + d_yy), m_row]),
                           np.maximum.reduce([a_off, np.abs(a_diag + d_pp), m_off,
                                              np.abs(d_py - m_diag)])])


class PairJacobian:
    """The pair system [[A + diag(d_yy), M / alpha], [-M + diag(d_py), A + diag(d_pp)]]
    of ``pair_operator`` as one canonical CSR matrix in (y_i, p_i)-pair
    order, for the KKT and continuation steps that factorise it: row and
    column 2k is y at node nd[k] of ``nd_order``, 2k + 1 is p there, and pair
    unknown j is unknown ``order[j]`` of the block order [y; p]. The first
    ``at`` lays it out, written directly in that order from A and M with no
    block matrix and no permuted copy, every entry of A and M stored, and
    each row sorted; ``matrix`` and ``order`` are None until then.

    In the sorted pair rows of node i, the b(i) entries of its neighbours in
    A and in M that come before it in nd come before its y column, and the
    others after its p column. So (y_i, y_i), (p_i, y_i) and (p_i, p_i) sit
    at b(i) in its state row, at b(i) in its adjoint row and right after
    that, and each ``at`` writes them there with no search.
    """

    matrix = order = None

    def __init__(self, ops: FeOperators, alpha: float):
        self.ops, self.alpha = ops, alpha

    def at(self, d_yy, d_pp, d_py=0.0) -> sp.csr_matrix:
        """``matrix`` with the three diagonals (arrays or scalars, by node)
        written in place, laid out first if it is not yet."""
        if self.matrix is None:
            self._lay_out()
        a_diag, m_diag = self.ops.A.diagonal(), self.ops.M.diagonal()
        data = self.matrix.data
        data[self._yy] = a_diag + d_yy
        data[self._py + 1] = a_diag + d_pp
        data[self._py] = d_py - m_diag
        return self.matrix

    def _lay_out(self) -> None:
        a, m, alpha = self.ops.A, self.ops.M, self.alpha
        nd = self.ops.space.nd_order
        n = len(nd)
        rank = np.empty(n, dtype=np.int64)  # the position of each node in nd
        rank[nd] = np.arange(n)
        # b(i), made before the matrix so that its work does not add to the peak
        before = sum(np.add.reduceat(rank[blk.indices] < np.repeat(rank, np.diff(blk.indptr)),
                                     blk.indptr[:-1], dtype=np.int64) for blk in (a, m))
        # pair row 2 rank[i] is row i of [A, M / alpha], pair row 2 rank[i] + 1
        # row i of [-M, A]; each holds the entries of its first block, then those
        # of its second
        a_len, m_len = np.diff(a.indptr), np.diff(m.indptr)
        nnz = 2 * (a.nnz + m.nnz)
        index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(2 * n + 1, dtype=index)
        np.cumsum(np.repeat((a_len + m_len)[nd], 2), out=indptr[1:])
        indices = np.empty(nnz, dtype=index)
        data = np.empty(nnz)
        state = indptr[:-1][0::2][rank]  # where the pair row of state row i starts
        adjoint = state + a_len + m_len
        for blk, scale, first, parity in ((a, 1.0, state, 0), (m, 1.0 / alpha, state + a_len, 1),
                                          (m, -1.0, adjoint, 0), (a, 1.0, adjoint + m_len, 1)):
            pos = np.repeat(first - blk.indptr[:-1], np.diff(blk.indptr)) + np.arange(blk.nnz)
            data[pos] = blk.data * scale  # as scipy scales M / alpha
            indices[pos] = 2 * rank[blk.indices] + parity
            del pos  # before the next block's is made
        self.matrix = sp.csr_matrix((data, indices, indptr), shape=(2 * n, 2 * n))
        self.matrix.sort_indices()  # row by row, in place
        self.order = np.column_stack([nd, nd + n]).ravel()
        self._yy, self._py = state + before, adjoint + before  # by node, lexicographic

    def solve(self, d_yy, d_pp, d_py, b, scale, fixed=None, dy_fixed=None,
              shift=None) -> np.ndarray:
        """[dy; dp] in block order from the float64 LU of the pair system with
        the three diagonals for ``b``, each row and its entry of ``b`` scaled
        by ``scale`` (both in block order): the last rung of the KKT and
        continuation steps. The KKT step passes its nodes N as ``fixed``,
        their dy as ``dy_fixed`` and the already-scaled D p dchi of the
        adjoint rows as ``shift``; those move to the right-hand side, and only
        the state rows and the adjoint rows outside N, in the columns dy
        outside N and every dp, are kept, one copy alive at a time.
        ``sparse_core.solve_linear`` factorises them in pair order and names a
        deficient row in block order (adjoint row i as n + i). No LU outlives
        the call."""
        jac = self.at(d_yy, d_pp, d_py)
        order, n = self.order, self.ops.space.n
        scale = scale[order]
        # divided by the scale, not multiplied by its inverse: that rounding
        # moves which later continuation steps FGMRES declines, and made the
        # alpha = 1e-6 path of example 2 at m = 33 factorise three times, not two
        b = b[order] / scale
        eq = sp.csr_matrix((jac.data * np.repeat(1.0 / scale, np.diff(jac.indptr)), jac.indices,
                            jac.indptr), shape=jac.shape)
        del scale  # so that only b is held beside the system from here on
        rows = cols = slice(None)
        if fixed is not None:
            dy = np.zeros(2 * n)  # in block order
            dy[fixed] = dy_fixed
            moved = eq @ dy[order]
            moved[1::2] += shift[self.ops.space.nd_order]
            b -= moved
            rows = np.flatnonzero(~np.isin(order, n + fixed))
            cols = np.flatnonzero(~np.isin(order, fixed))
            eq = eq[rows]  # one copy of the system at a time
            eq = eq[:, cols]
        k = eq.tocsc()
        del eq
        x = solve_linear(k, order[rows], b[rows])
        out = np.empty(2 * n) if fixed is None else dy
        out[order[cols]] = x
        return out


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

    Boundary nodes are written with value 0 (homogeneous Dirichlet). A field
    name must be a nonempty string without whitespace, which would split the
    SCALARS header. Each section is formatted in one operation and written
    before the next is built, so no string holds the whole file.
    """
    if not fields:
        raise MeshError("no fields to export")
    space = fields[0][1].space
    for name, fe in fields:
        if not isinstance(name, str) or name.split() != [name]:
            raise MeshError(f"field name {name!r} must be nonempty and without whitespace")
        if fe.space is not space:
            raise MeshError("all fields must share one space")
    mesh = space.mesh
    nv = len(mesh.vertices)
    nt = len(mesh.triangles)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 "nsocp fields\n"
                 "ASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {nv} double\n")
        fh.write("%.17g %.17g 0\n" * nv % tuple(mesh.vertices.ravel().tolist()))
        fh.write(f"CELLS {nt} {4 * nt}\n")
        fh.write("3 %d %d %d\n" * nt % tuple(mesh.triangles.ravel().tolist()))
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {nv}\n")
        for name, fe in fields:
            fh.write(f"SCALARS {name} double 1\n"
                     "LOOKUP_TABLE default\n")
            fh.write("%.17g\n" * nv % tuple(_full_coeffs(fe).tolist()))
