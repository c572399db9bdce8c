import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from nsocp.fe_mesh import (
    MeshError,
    PairJacobian,
    assemble_operators,
    build_mesh,
    build_space,
    export_vtk,
    interpolate,
    linf_nodal_error,
    sine_spectrum,
)
from nsocp.state_solver import m_norm

PI = np.pi


class TestBuildMesh:
    def test_counts_m2(self):
        mesh = build_mesh(2)
        assert len(mesh.vertices) == 9
        assert len(mesh.triangles) == 8
        space = build_space(mesh)
        assert space.n == 1
        assert np.allclose(mesh.vertices[space.interior_nodes[0]], [0.5, 0.5])

    def test_mesh_sizes_reference_values(self):
        assert build_mesh(33).h == pytest.approx(0.030303030303030, abs=1e-15)
        assert build_mesh(257).h == pytest.approx(0.003891050583658, abs=1e-15)

    def test_orientation_and_area(self):
        mesh = build_mesh(4)
        p = mesh.vertices[mesh.triangles]
        cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                 - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
        assert np.all(cross > 0)
        assert np.allclose(cross / 2, mesh.h ** 2 / 2)
        # triangles tile the unit square
        assert np.isclose(np.sum(cross / 2), 1.0)

    def test_too_small(self):
        with pytest.raises(MeshError):
            build_mesh(1)

    def test_non_integer_rejected(self):
        for m in (9.0, True, "9"):
            with pytest.raises(MeshError):
                build_mesh(m)

    def test_matches_loop_reference(self):
        # cell (j, i) is split into (v00, v10, v11) and (v00, v11, v01);
        # interior nodes are lexicographic in (j, i)
        for m in (2, 3, 6):
            tris = []
            for j in range(m):
                for i in range(m):
                    v00 = j * (m + 1) + i
                    tris += [(v00, v00 + 1, v00 + m + 2), (v00, v00 + m + 2, v00 + m + 1)]
            interior = [j * (m + 1) + i for j in range(1, m) for i in range(1, m)]
            mesh = build_mesh(m)
            space = build_space(mesh)
            assert mesh.triangles.dtype == np.int64
            assert space.interior_nodes.dtype == np.int64
            assert np.array_equal(mesh.triangles, np.array(tris))
            assert np.array_equal(space.interior_nodes, np.array(interior))


class TestNestedDissectionOrder:
    @pytest.mark.parametrize("m", [2, 3, 4, 17, 33])
    def test_is_permutation_of_interior_nodes(self, m):
        space = build_space(build_mesh(m))
        order = space.nd_order
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.arange(space.n))

    def test_computed_on_first_use_and_cached(self):
        space = build_space(build_mesh(9))
        assert "nd_order" not in vars(space)
        assert space.nd_order is space.nd_order

    def test_order_on_5x5_grid(self):
        # rows 0-1 and 3-4 of the grid, each split at column 2, then the
        # separating grid row 2
        assert build_space(build_mesh(6)).nd_order.tolist() == [
            0, 1, 5, 6, 3, 4, 8, 9, 2, 7, 15, 16, 20, 21, 18, 19, 23, 24, 17, 22,
            10, 11, 12, 13, 14]

    def test_leaves_no_reference_cycle(self):
        # a recursion that refers to itself through a closure keeps its list
        # of parts alive until a full garbage collection
        space = build_space(build_mesh(33))
        gc.collect()
        gc.disable()
        try:
            space.nd_order
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_less_fill_than_colamd_on_stiffness(self):
        space = build_space(build_mesh(65))
        a = assemble_operators(space).A
        order = space.nd_order
        nd_fill = splu(a[order][:, order].tocsc(), permc_spec="NATURAL").nnz
        colamd_fill = splu(a.tocsc(), permc_spec="COLAMD").nnz
        assert nd_fill < colamd_fill


def element_assembly(space):
    """Reference P1 operators summed triangle by triangle from the vertex
    coordinates over all vertices, then restricted to the interior nodes:
    stiffness, consistent mass and lumped mass (|T|/3 per vertex)."""
    mesh = space.mesh
    tri = mesh.triangles
    p = mesh.vertices[tri]  # (nt, 3, 2)
    x = p[:, :, 0]
    y = p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area[:, None, None])
    me = area[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :]

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = len(mesh.vertices)
    ix = space.interior_nodes
    a = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()[np.ix_(ix, ix)]
    m = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()[np.ix_(ix, ix)]
    d = np.zeros(nv)
    np.add.at(d, tri.ravel(), np.repeat(area / 3.0, 3))
    return a, m, d[ix]


class TestAssembleOperators:
    def test_hand_assembly_m2(self):
        ops = assemble_operators(build_space(build_mesh(2)))
        assert np.allclose(ops.A.toarray(), [[4.0]])
        assert np.allclose(ops.M.toarray(), [[0.125]])
        assert np.allclose(ops.d, [0.25])

    def test_five_point_stencil(self):
        # exactly, with nothing else stored: A has diagonal 4 and -1 to each
        # interior grid neighbor; M has h^2/2 on the diagonal and h^2/12 to
        # each interior node that shares a triangle edge (the four grid
        # neighbors and the two across the split diagonal); d = h^2
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        h = space.mesh.h
        n_side = 4
        axis = ((1, 0), (-1, 0), (0, 1), (0, -1))

        def stored(mat, row):
            lo, hi = mat.indptr[row], mat.indptr[row + 1]
            return dict(zip(mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist()))

        def neighbors(i, j, steps):
            return [(j + dj) * n_side + i + di for di, dj in steps
                    if 0 <= i + di < n_side and 0 <= j + dj < n_side]

        for row in range(space.n):
            i, j = row % n_side, row // n_side
            expect_a = {row: 4.0, **{col: -1.0 for col in neighbors(i, j, axis)}}
            assert stored(ops.A, row) == expect_a
            edges = neighbors(i, j, axis + ((1, 1), (-1, -1)))
            assert stored(ops.M, row) == {row: h ** 2 / 2, **{col: h ** 2 / 12 for col in edges}}
        assert np.all(ops.d == h ** 2)

    @pytest.mark.parametrize("m", [2, 3, 6, 17])
    def test_matches_element_assembly(self, m):
        space = build_space(build_mesh(m))
        ops = assemble_operators(space)
        a, mass, d = element_assembly(space)
        for got, ref in ((ops.A, a), (ops.M, mass)):
            assert abs(got - ref).max() <= 1e-13 * abs(ref).max()
        assert np.max(np.abs(ops.d - d)) <= 1e-13 * np.max(d)

    def test_discrete_harmonicity_of_affine(self):
        # A applied to an interpolated affine function vanishes on rows whose
        # stencil stays inside the domain
        space = build_space(build_mesh(8))
        ops = assemble_operators(space)
        aff = interpolate(space, lambda x1, x2: 2.0 * x1 - 0.5 * x2 + 0.25)
        residual = ops.A @ aff.coeffs
        pts = space.mesh.vertices[space.interior_nodes]
        h = space.mesh.h
        deep = ((pts[:, 0] > h + 1e-12) & (pts[:, 0] < 1 - h - 1e-12)
                & (pts[:, 1] > h + 1e-12) & (pts[:, 1] < 1 - h - 1e-12))
        assert np.allclose(residual[deep], 0.0, atol=1e-12)

    def test_lumped_mass_consistency(self):
        space = build_space(build_mesh(6))
        ops = assemble_operators(space)
        d = ops.d
        assert np.all(d > 0)
        assert d.sum() <= 1.0 + 1e-12
        # sum over triangles of |T| * (#interior vertices) / 3
        mesh = space.mesh
        interior = set(space.interior_nodes.tolist())
        area = mesh.h ** 2 / 2
        expect = sum(area / 3 for tri in mesh.triangles for v in tri if v in interior)
        assert d.sum() == pytest.approx(expect, rel=1e-13)

    def test_mass_row_sums_match_lumped_inside(self):
        space = build_space(build_mesh(6))
        ops = assemble_operators(space)
        m = ops.M
        d = ops.d
        pts = space.mesh.vertices[space.interior_nodes]
        h = space.mesh.h
        deep = ((pts[:, 0] > h + 1e-12) & (pts[:, 0] < 1 - h - 1e-12)
                & (pts[:, 1] > h + 1e-12) & (pts[:, 1] < 1 - h - 1e-12))
        rowsums = np.asarray(m.sum(axis=1)).ravel()
        assert np.allclose(rowsums[deep], d[deep], atol=1e-14)

    def test_m_norm_matches_element_mass(self):
        # M is the consistent P1 mass: v^T M v equals the sum over triangles
        # of the element mass |T| (1 + delta_kl) / 12 applied to the vertex values
        space = build_space(build_mesh(7))
        fe = interpolate(space, lambda x1, x2: x1 * (1 - x1) * np.sin(PI * x2))
        mesh = space.mesh
        full = np.zeros(len(mesh.vertices))
        full[space.interior_nodes] = fe.coeffs
        cval = full[mesh.triangles]
        me_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
        quad = np.einsum("tk,kl,tl->", cval, me_ref, cval) * mesh.h ** 2 / 2
        ops = assemble_operators(space)
        assert m_norm(ops, fe.coeffs) == pytest.approx(np.sqrt(quad), rel=1e-12)

    def test_spd(self):
        space = build_space(build_mesh(5))
        ops = assemble_operators(space)
        for mat in (ops.A, ops.M):
            dense = mat.toarray()
            assert np.allclose(dense, dense.T)
            assert np.all(np.linalg.eigvalsh(dense) > 0)


class TestSineSpectrum:
    """The sine basis diagonalises A and M~, the stencil M without its one
    term (h^2/24) K (x) K, K = L - L^T; a change to a stencil fails here."""

    @staticmethod
    def m_tilde_and_kk(space):
        """M~ and (h^2/24) K (x) K, dense, from their Kronecker formulas."""
        k, h2 = space.mesh.m - 1, space.mesh.h ** 2
        eye, shift = np.eye(k), np.eye(k, k=-1)
        s, skew = shift + shift.T, shift - shift.T
        m_tilde = (h2 / 12) * (6 * np.eye(space.n) + np.kron(eye, s) + np.kron(s, eye)
                               + 0.5 * np.kron(s, s))
        return m_tilde, (h2 / 24) * np.kron(skew, skew)

    @pytest.mark.parametrize("m", [5, 9, 17, 33])
    def test_diagonalises_a_and_m_tilde(self, m):
        space = build_space(build_mesh(m))
        phi, lam_a, lam_m = sine_spectrum(space)
        assert np.allclose(phi, phi.T, rtol=0, atol=1e-15)
        assert np.allclose(phi @ phi, np.eye(m - 1), rtol=0, atol=1e-14)
        basis = np.kron(phi, phi)
        m_tilde, _ = self.m_tilde_and_kk(space)
        for mat, lam in ((assemble_operators(space).A.toarray(), lam_a), (m_tilde, lam_m)):
            assert lam.shape == (m - 1, m - 1)
            off = np.abs(basis @ mat @ basis - np.diag(lam.ravel())).max()
            assert off <= 1e-14 * np.abs(lam).max()

    def test_cached_on_the_space_and_read_only(self):
        space = build_space(build_mesh(9))
        assert "spectrum" not in vars(space)
        assert space.spectrum is space.spectrum
        for got, want in zip(space.spectrum, sine_spectrum(space), strict=True):
            assert np.array_equal(got, want) and not got.flags.writeable

    @pytest.mark.parametrize("m", [5, 9, 17, 33])
    def test_m_tilde_is_m_without_kk(self, m):
        space = build_space(build_mesh(m))
        m_tilde, kk = self.m_tilde_and_kk(space)
        assert np.array_equal(assemble_operators(space).M.toarray() - m_tilde, kk)


class TestPairJacobian:
    """The one layout of the pair system that the KKT and continuation steps
    factorise and refill."""

    @pytest.mark.parametrize("m", [5, 9])
    def test_is_k0_in_pair_order(self, m):
        # read back in the block order [y; p], it is [[A, M / alpha], [-M, A]]
        # with every entry of A and M, and no other entry, stored
        ops = assemble_operators(build_space(build_mesh(m)))
        n, alpha = ops.space.n, 1e-3
        jacobian = PairJacobian(ops, alpha)
        assert jacobian.matrix is None and jacobian.order is None  # not laid out yet
        jac = jacobian.at(0.0, 0.0)
        a, mm = ops.A.toarray(), ops.M.toarray()
        full = np.empty((2 * n, 2 * n))
        full[np.ix_(jacobian.order, jacobian.order)] = jac.toarray()
        assert np.array_equal(full, np.block([[a, (ops.M / alpha).toarray()], [-mm, a]]))
        assert jac.nnz == 2 * (ops.A.nnz + ops.M.nnz)

    @pytest.mark.parametrize("m", [5, 9])
    @pytest.mark.parametrize("alpha", [1e-3, 1e-4, 0.7])
    def test_block_matrix_permuted_entry_for_entry(self, m, alpha):
        # the same matrix as sp.bmat's block matrix with its rows and then
        # its columns permuted to pair order, bit for bit, but canonical
        ops = assemble_operators(build_space(build_mesh(m)))
        jacobian = PairJacobian(ops, alpha)
        jac = jacobian.at(0.0, 0.0)
        order = jacobian.order
        nd = ops.space.nd_order
        assert np.array_equal(order, np.column_stack([nd, nd + ops.space.n]).ravel())
        ref = sp.bmat([[ops.A, ops.M / alpha], [-ops.M, ops.A]], format="csr")[order][:, order]
        assert jac.has_canonical_format
        ref.sort_indices()
        for got, want in ((jac.indptr, ref.indptr), (jac.indices, ref.indices),
                          (jac.data.view(np.uint64), ref.data.view(np.uint64))):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_positions_of_the_refilled_diagonals(self, m):
        # on even and odd meshes, and n = 1: refilled twice in place with
        # random diagonals, and read back in block order, it is
        # [[A + diag(d_yy), M / alpha], [-M + diag(d_py), A + diag(d_pp)]] bit
        # for bit, so each diagonal lands on its own entries and no other
        ops = assemble_operators(build_space(build_mesh(m)))
        n, alpha = ops.space.n, 1e-3
        a = ops.A.toarray()
        m_alpha = (ops.M / alpha).toarray()  # scipy multiplies by 1 / alpha
        jacobian = PairJacobian(ops, alpha)
        rng = np.random.default_rng(m)
        for _ in range(2):
            d_yy, d_pp, d_py = rng.standard_normal((3, n))
            jac = jacobian.at(d_yy, d_pp, d_py)
            assert jac is jacobian.matrix and jac.nnz == 2 * (ops.A.nnz + ops.M.nnz)
            full = np.empty((2 * n, 2 * n))
            full[np.ix_(jacobian.order, jacobian.order)] = jac.toarray()
            want = np.block([[a + np.diag(d_yy), m_alpha],
                             [-ops.M.toarray() + np.diag(d_py), a + np.diag(d_pp)]])
            assert np.array_equal(full.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("m", [33, 65])
    def test_layout_peak(self, m):
        # written in place and sorted row by row, with the refill positions
        # counted before the matrix is made, it peaks at 1.7-1.8 times its
        # own bytes (the writing itself; 2.6-2.9 times with the positions
        # looked up after the sort, sp.bmat and two permuted copies at
        # 2.65-2.72); a KKT step that lays it out peaks at 4.0 times, its
        # later work on top of the layout it keeps
        ops = assemble_operators(build_space(build_mesh(m)))
        ops.space.nd_order  # computed before the trace
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            jac = PairJacobian(ops, 1e-4).at(0.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * (jac.data.nbytes + jac.indices.nbytes + jac.indptr.nbytes)


class TestInterpolate:
    def test_zero(self):
        space = build_space(build_mesh(3))
        assert np.allclose(interpolate(space, lambda x1, x2: 0.0 * x1).coeffs, 0.0)

    def test_coordinate(self):
        space = build_space(build_mesh(2))
        fe = interpolate(space, lambda x1, x2: x1)
        assert fe.coeffs[0] == pytest.approx(0.5)

    def test_exact_zero_of_sine(self):
        space = build_space(build_mesh(2))
        fe = interpolate(space, lambda x1, x2: np.sin(PI * x1) * np.sin(2 * PI * x2))
        assert fe.coeffs[0] == pytest.approx(0.0, abs=1e-15)

    def test_nonfinite_rejected(self):
        space = build_space(build_mesh(3))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(MeshError):
                interpolate(space, lambda x1, x2: x1 / (x1 - x1))


class TestLinfNodalError:
    def test_identical(self):
        space = build_space(build_mesh(3))
        fe = interpolate(space, lambda x1, x2: x1 * x2)
        assert linf_nodal_error(fe, fe) == 0.0

    def test_unit_difference(self):
        space = build_space(build_mesh(2))
        a = space.function(np.array([1.0]))
        b = space.function(np.array([0.0]))
        assert linf_nodal_error(a, b) == 1.0

    def test_space_mismatch(self):
        s1 = build_space(build_mesh(3))
        s2 = build_space(build_mesh(3))
        with pytest.raises(MeshError):
            linf_nodal_error(s1.zero(), s2.zero())


def parse_vtk_point_data(path):
    """Round-trip oracle: read back scalar arrays from a legacy VTK file."""
    lines = path.read_text().splitlines()
    n_points = None
    arrays = {}
    i = 0
    while i < len(lines):
        tok = lines[i].split()
        if tok and tok[0] == "POINTS":
            n_points = int(tok[1])
        if tok and tok[0] == "SCALARS":
            name = tok[1]
            vals = [float(lines[j]) for j in range(i + 2, i + 2 + n_points)]
            arrays[name] = np.array(vals)
            i += 1 + n_points
        i += 1
    return arrays


class TestExportVtk:
    def test_zero_field_structure(self, tmp_path):
        space = build_space(build_mesh(2))
        path = tmp_path / "f.vtk"
        export_vtk([("y", space.zero())], path)
        text = path.read_text()
        assert "POINTS 9 double" in text
        assert "CELLS 8 32" in text
        assert text.count("SCALARS") == 1

    def test_two_fields(self, tmp_path):
        space = build_space(build_mesh(3))
        path = tmp_path / "f.vtk"
        export_vtk([("y", space.zero()), ("p", space.zero())], path)
        assert path.read_text().count("SCALARS") == 2

    def test_roundtrip(self, tmp_path):
        space = build_space(build_mesh(3))
        fe = interpolate(space, lambda x1, x2: x1 + 10 * x2)
        path = tmp_path / "f.vtk"
        export_vtk([("y", fe)], path)
        arrays = parse_vtk_point_data(path)
        recovered = arrays["y"][space.interior_nodes]
        assert np.array_equal(recovered, fe.coeffs)

    def test_whole_file_m2(self, tmp_path):
        # the legacy layout, line by line; 0.1 + 0.2 and -1e-300 / 3 need all
        # 17 significant digits to round-trip
        space = build_space(build_mesh(2))
        path = tmp_path / "f.vtk"
        export_vtk([("y", space.function(np.array([0.1 + 0.2]))),
                    ("p", space.function(np.array([-1e-300 / 3])))], path)
        points = ["0 0 0", "0.5 0 0", "1 0 0", "0 0.5 0", "0.5 0.5 0", "1 0.5 0",
                  "0 1 0", "0.5 1 0", "1 1 0"]
        cells = ["3 0 1 4", "3 0 4 3", "3 1 2 5", "3 1 5 4",
                 "3 3 4 7", "3 3 7 6", "3 4 5 8", "3 4 8 7"]
        expected = [
            "# vtk DataFile Version 3.0", "nsocp fields", "ASCII",
            "DATASET UNSTRUCTURED_GRID", "POINTS 9 double", *points,
            "CELLS 8 32", *cells, "CELL_TYPES 8", *["5"] * 8, "POINT_DATA 9",
            "SCALARS y double 1", "LOOKUP_TABLE default",
            *["0"] * 4, "0.30000000000000004", *["0"] * 4,
            "SCALARS p double 1", "LOOKUP_TABLE default",
            *["0"] * 4, "-3.3333333333333334e-301", *["0"] * 4,
        ]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_matches_line_by_line_writer(self, tmp_path):
        space = build_space(build_mesh(9))
        rng = np.random.default_rng(3)
        fields = [(name, space.function(rng.standard_normal(space.n) * 10.0 ** e))
                  for name, e in (("y", 0), ("p", -200), ("chi", 200))]
        path = tmp_path / "f.vtk"
        export_vtk(fields, path)
        mesh = space.mesh
        nv, nt = len(mesh.vertices), len(mesh.triangles)
        lines = ["# vtk DataFile Version 3.0", "nsocp fields", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
        lines += [f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices]
        lines += [f"CELLS {nt} {4 * nt}"] + [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
        lines += [f"CELL_TYPES {nt}"] + ["5"] * nt + [f"POINT_DATA {nv}"]
        for name, fe in fields:
            full = np.zeros(nv)
            full[space.interior_nodes] = fe.coeffs
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines += [f"{v:.17g}" for v in full]
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", ["", "my field", "y\t", " y", "a\nb", None])
    def test_bad_field_name_rejected(self, tmp_path, name):
        space = build_space(build_mesh(3))
        path = tmp_path / "f.vtk"
        with pytest.raises(MeshError, match="field name"):
            export_vtk([("y", space.zero()), (name, space.zero())], path)
        assert not path.exists()

    def test_mixed_spaces_rejected(self, tmp_path):
        s1 = build_space(build_mesh(3))
        s2 = build_space(build_mesh(4))
        with pytest.raises(MeshError):
            export_vtk([("a", s1.zero()), ("b", s2.zero())], tmp_path / "f.vtk")
