import numpy as np
import pytest

from nsocp.fe_mesh import (
    MeshError,
    assemble_operators,
    build_mesh,
    build_space,
    export_vtk,
    interpolate,
    linf_nodal_error,
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


class TestAssembleOperators:
    def test_hand_assembly_m2(self):
        ops = assemble_operators(build_space(build_mesh(2)))
        assert np.allclose(ops.A.toarray(), [[4.0]])
        assert np.allclose(ops.M.toarray(), [[0.125]])
        assert np.allclose(ops.d, [0.25])

    def test_five_point_stencil(self):
        # interior rows: diagonal 4, -1 to each of the four grid neighbors
        space = build_space(build_mesh(5))
        a = assemble_operators(space).A.toarray()
        n_side = 4
        for row in range(space.n):
            i, j = row % n_side, row // n_side
            assert a[row, row] == pytest.approx(4.0)
            offdiag = np.delete(a[row], row)
            assert np.all(np.isin(np.round(offdiag, 12), [0.0, -1.0]))
            expected_neighbors = sum(
                1 for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= i + di < n_side and 0 <= j + dj < n_side)
            assert np.sum(np.isclose(a[row], -1.0)) == expected_neighbors

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

    def test_mixed_spaces_rejected(self, tmp_path):
        s1 = build_space(build_mesh(3))
        s2 = build_space(build_mesh(4))
        with pytest.raises(MeshError):
            export_vtk([("a", s1.zero()), ("b", s2.zero())], tmp_path / "f.vtk")
