import json
import math
import re

import numpy as np
import pytest

from grassdist import angles, metrics, subspace, verify
from grassdist.cli import main
from grassdist.io import (SubspaceFileError, _array_columns, dump_subspace_file,
                          load_subspace_file, parse_subspace_file)
from grassdist.numerics import Field
from grassdist.subspace import Subspace

S2 = math.sqrt(2) / 2


def write_file(tmp_path, doc, name="subspaces.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def report_lines(out):
    """(label, value text) for each line of a ``grassdist angles`` report,
    in the order printed."""
    return [tuple(part.strip() for part in line.split(":", 1))
            for line in out.splitlines()]


def angle_value(text):
    """(degrees, radians) from an angle line's value, such as
    ``54.735610 deg   (0.9553166181245093 rad)``."""
    deg, rad = re.fullmatch(r"(\S+) deg\s+\((\S+) rad\)", text).groups()
    return float(deg), float(rad)


def report_angles(out):
    """label -> (degrees, radians) for each angle line of a report."""
    return {label: angle_value(value) for label, value in report_lines(out)
            if value.endswith(" rad)")}


def assert_angle(deg_rad, expected):
    """An angle line's (degrees, radians) reports ``expected`` radians: the
    repr radians to 1e-9, the degrees to their 6 printed places."""
    deg, rad = deg_rad
    assert rad == pytest.approx(expected, abs=1e-9)
    assert deg == pytest.approx(math.degrees(expected), abs=1e-6)


@pytest.fixture
def blades_file(tmp_path):
    # the R^5 blade quartet with its raw (non-orthonormal) spanning vectors
    return write_file(tmp_path, {
        "field": "real",
        "ambient_dim": 5,
        "subspaces": [
            {"id": "A", "vectors": [[2, -1, 0, 0, 0], [2, 0, 1, 0, 0]]},
            {"id": "B", "vectors": [[0, 1, 0, 0, 1], [0, 0, 1, -1, 0]]},
            {"id": "C", "vectors": [[0, 1, 0, 0, 1], [0, 0, 1, -1, 0],
                                    [0, 0, 0, 1, 0]]},
            {"id": "D", "vectors": [[2, -1, 0, 0, 0], [2, 0, 1, 0, 0],
                                    [0, 0, 1, 0, 0]]},
        ],
    })


@pytest.fixture
def containment_file(tmp_path):
    return write_file(tmp_path, {
        "field": "real",
        "ambient_dim": 4,
        "subspaces": [
            {"id": "V", "vectors": [[1, 0, 0, 0]]},
            {"id": "W", "vectors": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        ],
    })


class TestSubspaceFile:
    def test_parse_complex_entries(self):
        text = json.dumps({
            "field": "complex",
            "ambient_dim": 2,
            "subspaces": [{"id": "v", "vectors": [[[0, 0.5], [0.8660254, 0]]]}],
        })
        sfile = parse_subspace_file(text)
        assert sfile.field is Field.COMPLEX
        v = sfile.get("v")
        assert v.dim == 1
        assert v.basis[0, 0] == pytest.approx(0.5j, abs=1e-6)

    def test_round_trip_bit_for_bit(self, blades_file):
        from grassdist.metrics import containment_gap
        sfile = load_subspace_file(blades_file)
        text = dump_subspace_file(sfile)
        again = parse_subspace_file(text)
        for (id1, s1), (id2, s2) in zip(sfile.subspaces, again.subspaces):
            assert id1 == id2
            assert np.array_equal(s1.basis, s2.basis)
        before = np.array([[containment_gap(a, b) for _, b in sfile.subspaces]
                           for _, a in sfile.subspaces])
        after = np.array([[containment_gap(a, b) for _, b in again.subspaces]
                          for _, a in again.subspaces])
        assert np.array_equal(before, after)

    def test_empty_vectors_is_zero_subspace(self):
        text = json.dumps({"field": "real", "ambient_dim": 3,
                           "subspaces": [{"id": "z", "vectors": []}]})
        assert parse_subspace_file(text).get("z").dim == 0

    @pytest.mark.parametrize("doc", [
        {"field": "real", "ambient_dim": 3, "subspaces": []},
        {"field": "real", "subspaces": [{"id": "a", "vectors": [[1, 0]]}]},
        {"field": "quaternion", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[1, 0]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[1, 0, 0]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[1, 0]]},
                       {"id": "a", "vectors": [[0, 1]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[True, 0]]}]},
        {"field": "complex", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[[True, 0], [0, 0]]]}]},
        {"field": "real", "ambient_dim": True,
         "subspaces": [{"id": "a", "vectors": [[1]]}]},
        {"field": "real", "ambient_dim": 2.7,
         "subspaces": [{"id": "a", "vectors": [[1, 0]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": None}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": 5}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [["1.5", 0]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[None, 0]]}]},
        {"field": "complex", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[["1", 0], [0, 0]]]}]},
        {"field": "complex", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[[1, 0, 0], [0, 1, 0]]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[[1, 0], [0, 1]]]}]},
        {"field": "real", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[10 ** 400, 0]]}]},
        {"field": "complex", "ambient_dim": 2,
         "subspaces": [{"id": "a", "vectors": [[[0, 10 ** 400], [0, 1]]]}]},
    ], ids=["no-subspaces", "no-ambient", "bad-field", "bad-length", "dup-id",
            "bool-entry", "bool-in-pair", "bool-ambient", "fractional-ambient",
            "vectors-null", "vectors-number", "string-entry", "null-entry",
            "string-in-pair", "three-element-pair", "pair-in-real-file",
            "huge-int", "huge-int-in-pair"])
    def test_malformed_rejected(self, doc):
        with pytest.raises(SubspaceFileError):
            parse_subspace_file(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        '{"field": "real", "ambient_dim": 1, "subspaces": [{"id": "a", '
        '"vectors": [[' + "1" * 5000 + ']]}]}',
        "[" * 100_000,
    ], ids=["5000-digit-int", "deep-nesting"])
    def test_undecodable_rejected(self, text):
        with pytest.raises(SubspaceFileError):
            parse_subspace_file(text)

    def test_nonfinite_rejected(self):
        text = json.dumps({"field": "real", "ambient_dim": 2,
                           "subspaces": [{"id": "a", "vectors": [[1e400, 0]]}]})
        with pytest.raises(SubspaceFileError):
            parse_subspace_file(text)


def per_scalar_columns(vectors, field):
    """The reference rule: each entry through ``float`` or, for a pair,
    ``complex(re, im)``, then one array of the field's dtype."""
    def scalar(x):
        return complex(*x) if isinstance(x, list) else float(x)
    return np.array([[scalar(x) for x in vec] for vec in vectors],
                    dtype=field.dtype).T


# Entries that numpy reads as float64, int64 and uint64 arrays, with the
# integers that need rounding to a double (2**53 + 1, 2**63 + 1025).
REAL_VECTORS = {
    "floats": [[0.1, -0.0, 1e-300, -2.5], [1e300, 3.0, -0.0, 7.25]],
    "int64": [[2 ** 53 + 1, -2 ** 63, 3, 0], [-(2 ** 53 + 1), 1, 0, 5]],
    "uint64": [[2 ** 63 + 1, 2 ** 63 + 1025, 2 ** 64 - 1, 0],
               [1, 0, 2 ** 63 + 3073, 2]],
    "mixed": [[2 ** 63 + 1, -2 ** 63, 0.5, 2 ** 53 + 1], [0, -0.0, 1, 9]],
}
COMPLEX_VECTORS = {
    "floats": [[[-0.0, 1.0], [0.5, -0.0], [-0.0, -0.0]],
               [[0.25, 0.75], [-0.0, 2.5], [1e-300, 0.0]]],
    "int64": [[[2 ** 53 + 1, -2 ** 63], [1, 0], [0, 1]],
              [[0, 3], [-(2 ** 53 + 1), 0], [4, 4]]],
    "uint64": [[[2 ** 63 + 1, 2 ** 63 + 1025], [1, 2], [2 ** 64 - 1, 0]],
               [[0, 0], [2 ** 63 + 3073, 5], [1, 1]]],
    "mixed": [[[2 ** 63 + 1, -1], [-0.0, 0.5], [2 ** 53 + 1, 0]],
              [[1, 1], [0, -0.0], [3, 4]]],
}


def vectors_file(field, vectors):
    n = len(next(iter(vectors.values()))[0])
    return {"field": field.value, "ambient_dim": n,
            "subspaces": [{"id": sid, "vectors": vecs}
                          for sid, vecs in vectors.items()]}


def assert_bases_identical(parsed, expected):
    for (sid, sub), (eid, ref) in zip(parsed.subspaces, expected):
        assert sid == eid
        assert sub.basis.dtype == ref.basis.dtype
        assert sub.basis.shape == ref.basis.shape
        assert sub.basis.strides == ref.basis.strides
        assert sub.basis.tobytes() == ref.basis.tobytes()
        assert sub.was_reduced == ref.was_reduced


def fail_if_called(what):
    def fail(*args):
        raise AssertionError(what)
    return fail


def per_scalar_bases(doc):
    field = Field(doc["field"])
    return [(item["id"], Subspace.from_columns(
                per_scalar_columns(item["vectors"], field), field))
            for item in doc["subspaces"]]


class TestArrayConversionParity:
    """One array conversion per subspace gives the bits of the per-scalar
    rule, and everything it cannot take falls back to that rule."""

    @pytest.mark.parametrize("field, vectors", [
        (Field.REAL, REAL_VECTORS), (Field.COMPLEX, COMPLEX_VECTORS)],
        ids=["real", "complex"])
    def test_array_columns_match_per_scalar_rule(self, field, vectors):
        for sid, vecs in vectors.items():
            expected = per_scalar_columns(vecs, field)
            cols = _array_columns(vecs, expected.shape[0], field)
            assert cols is not None, sid
            assert cols.dtype == expected.dtype
            assert cols.strides == expected.strides
            assert cols.tobytes() == expected.tobytes(), sid

    @pytest.mark.parametrize("field, vectors", [
        (Field.REAL, REAL_VECTORS), (Field.COMPLEX, COMPLEX_VECTORS)],
        ids=["real", "complex"])
    def test_parsed_bases_match_per_scalar_rule(self, field, vectors,
                                                monkeypatch):
        doc = vectors_file(field, vectors)
        expected = per_scalar_bases(doc)
        monkeypatch.setattr("grassdist.io._validated_columns",
                            fail_if_called("validator on a regular file"))
        assert_bases_identical(parse_subspace_file(json.dumps(doc)), expected)

    def test_true_in_an_id_takes_the_validator(self, monkeypatch):
        doc = vectors_file(Field.COMPLEX, COMPLEX_VECTORS)
        doc["subspaces"][0]["id"] = "true-line"
        expected = per_scalar_bases(doc)
        monkeypatch.setattr("grassdist.io._array_columns", fail_if_called(
            "array conversion despite a 'true' token"))
        assert_bases_identical(parse_subspace_file(json.dumps(doc)), expected)

    def test_mixed_reals_and_pairs_equal_all_pairs(self):
        mixed = {"field": "complex", "ambient_dim": 3, "subspaces": [
            {"id": "a", "vectors": [[1.5, [0, 2], -0.0], [[1, -1], 2, 3]]},
            {"id": "b", "vectors": [[2 ** 53 + 1, 0, [-0.0, 1]]]}]}
        pairs = {"field": "complex", "ambient_dim": 3, "subspaces": [
            {"id": "a", "vectors": [[[1.5, 0], [0, 2], [-0.0, 0]],
                                    [[1, -1], [2, 0], [3, 0]]]},
            {"id": "b", "vectors": [[[2 ** 53 + 1, 0], [0, 0], [-0.0, 1]]]}]}
        for item in mixed["subspaces"]:
            assert _array_columns(item["vectors"], 3, Field.COMPLEX) is None
        parsed_pairs = parse_subspace_file(json.dumps(pairs))
        assert_bases_identical(parsed_pairs, per_scalar_bases(pairs))
        assert_bases_identical(parse_subspace_file(json.dumps(mixed)),
                               parsed_pairs.subspaces)


class TestAnglesCommand:
    def test_contraction_pair(self, blades_file, capsys):
        assert main(["angles", blades_file, "A", "B"]) == 0
        out = capsys.readouterr().out
        angles = report_angles(out)
        assert_angle(angles["theta A->B"], math.acos(1 / 6))       # 80.405932 deg
        assert_angle(angles["upsilon (disjointness)"],
                     math.asin(math.sqrt(17) / 6))                  # 43.407631 deg
        assert "dims p=2 q=2" in out

    def test_identical_ids(self, blades_file, capsys):
        assert main(["angles", blades_file, "A", "A"]) == 0
        thetas = [angle_value(value)
                  for label, value in report_lines(capsys.readouterr().out)
                  if label == "theta A->A"]
        assert len(thetas) == 2   # both directions carry the same label
        for theta in thetas:
            assert_angle(theta, 0.0)

    def test_route_flag(self, blades_file, capsys):
        for route in ("principal", "gram", "exterior"):
            assert main(["angles", blades_file, "A", "C", "--route", route]) == 0
            angles = report_angles(capsys.readouterr().out)
            assert_angle(angles["theta A->C"],
                         math.acos(1 / (3 * math.sqrt(2))))         # 76.366978 deg

    def test_complex_pair(self, tmp_path, capsys):
        # C^3 pair sharing a line: Theta = Psi = arccos(1/sqrt3), Upsilon = 0
        xi = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        def c(z): return [z.real, z.imag]
        doc = {"field": "complex", "ambient_dim": 3, "subspaces": [
            {"id": "V", "vectors": [[c(1 + 0j), c(-xi), c(0j)],
                                    [c(0j), c(xi), c(-xi ** 2)]]},
            {"id": "W", "vectors": [[c(1 + 0j), c(0j), c(0j)],
                                    [c(0j), c(xi), c(0j)]]},
        ]}
        path = write_file(tmp_path, doc)
        assert main(["angles", path, "V", "W"]) == 0
        out = capsys.readouterr().out
        angles = report_angles(out)
        for label in ("theta V->W", "theta W->V", "psi (supplementation)"):
            assert_angle(angles[label], math.acos(1 / math.sqrt(3)))
        assert_angle(angles["upsilon (disjointness)"], 0.0)
        # the shared line is the principal angle 0
        assert dict(report_lines(out))["principal angles (deg)"] == \
            "[0.000000, 54.735610]"

    def test_one_kernel_call_per_report(self, blades_file, capsys, monkeypatch):
        # the projection factor comes from the report's principal angles,
        # on every route
        calls = []
        kernel = subspace.principal_angles

        def counted(v, w):
            calls.append((v, w))
            return kernel(v, w)

        for module in (subspace, angles, metrics, verify):
            monkeypatch.setattr(module, "principal_angles", counted)
        for route in ("principal", "gram", "exterior"):
            calls.clear()
            assert main(["angles", blades_file, "A", "B", "--route", route]) == 0
            assert len(calls) == 1, route
        # and equals the standalone function bit for bit
        sfile = load_subspace_file(blades_file)
        factor = angles.projection_factor(sfile.get("A"), sfile.get("B"))
        printed = dict(report_lines(capsys.readouterr().out))["projection factor"]
        assert printed == repr(factor)
        assert factor == pytest.approx(1 / 6, abs=1e-12)

    def test_missing_id_exit_2(self, blades_file, capsys):
        assert main(["angles", blades_file, "A", "nope"]) == 2

    def test_parse_failure_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["angles", str(bad), "A", "B"]) == 2

    def test_angle_below_tolerance_is_an_intersection(self, tmp_path, capsys):
        # two lines of R^2 at 5e-10 < angle_tol: the angle counts as zero,
        # so dim(V & W) = 1, V + W falls short of R^2 and psi is 0
        eps = 5e-10
        doc = {"field": "real", "ambient_dim": 2,
               "subspaces": [{"id": "a", "vectors": [[1, 0]]},
                             {"id": "b", "vectors": [[math.cos(eps),
                                                      math.sin(eps)]]}]}
        path = write_file(tmp_path, doc)
        assert main(["angles", path, "a", "b"]) == 0
        out = capsys.readouterr().out
        assert report_angles(out)["psi (supplementation)"] == (0.0, 0.0)
        assert "note:" not in out

    @pytest.mark.parametrize("flag", ["--rank-tol", "--angle-tol"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, tmp_path, capsys, flag, value):
        # with --rank-tol nan the lines [2, 0] and [1, 1] became {0} (exit 0)
        doc = {"field": "real", "ambient_dim": 2,
               "subspaces": [{"id": "a", "vectors": [[2, 0]]},
                             {"id": "b", "vectors": [[1, 1]]}]}
        path = write_file(tmp_path, doc)
        assert main(["angles", path, "a", "b", flag, value]) == 2
        captured = capsys.readouterr()
        assert "finite and nonnegative" in captured.err
        assert "dims" not in captured.out

    def test_numerical_degeneracy_exit_3(self, blades_file, capsys, monkeypatch):
        from grassdist.errors import NumericalDegeneracyError

        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("SVD did not converge")

        monkeypatch.setattr("grassdist.cli.angle_report", degenerate)
        assert main(["angles", blades_file, "A", "B"]) == 3
        assert "numerical degeneracy:" in capsys.readouterr().err


class TestMatrixCommand:
    def test_containment_pair_fubini_study(self, containment_file, capsys):
        assert main(["matrix", containment_file, "--metric", "fubini_study"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["direction_convention"] == "row->column"
        assert doc["ids"] == ["V", "W"]
        assert doc["units"] == "radians"
        values = np.array(doc["values"])
        np.testing.assert_allclose(values, [[0, 0], [math.pi / 2, 0]],
                                   atol=1e-9)

    def test_symmetrize_max(self, containment_file, capsys):
        assert main(["matrix", containment_file, "--metric", "fubini_study",
                     "--symmetrize", "max"]) == 0
        values = np.array(json.loads(capsys.readouterr().out)["values"])
        np.testing.assert_allclose(values, [[0, math.pi / 2], [math.pi / 2, 0]],
                                   atol=1e-9)

    def test_csv_output(self, containment_file, tmp_path, capsys):
        out_path = tmp_path / "m.csv"
        assert main(["matrix", containment_file, "--metric", "containment_gap",
                     "--format", "csv", "--output", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("# metric=containment_gap")
        assert lines[1] == "id,V,W"
        row_v = lines[2].split(",")
        assert row_v[0] == "V" and float(row_v[2]) == pytest.approx(0, abs=1e-9)
        row_w = lines[3].split(",")
        assert float(row_w[1]) == pytest.approx(1.0)

    def test_full_precision_json(self, blades_file, capsys):
        assert main(["matrix", blades_file, "--metric", "binet_cauchy"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        # machine-precision value of sin(arccos(1/6))
        assert values[0][1] == pytest.approx(math.sqrt(35) / 6, abs=1e-15)

    def test_infinite_entry_is_strict_json_null(self, tmp_path, capsys):
        # V = span(e1, e2) and W = span(e2, e3) meet at an exact right angle,
        # so Martin's quantity is infinite both ways
        path = write_file(tmp_path, {
            "field": "real", "ambient_dim": 3,
            "subspaces": [{"id": "V", "vectors": [[1, 0, 0], [0, 1, 0]]},
                          {"id": "W", "vectors": [[0, 1, 0], [0, 0, 1]]}]})
        assert main(["matrix", path, "--metric", "martin"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["values"] == [[0.0, None], [None, 0.0]]

    def test_paper_pair_off_diagonals(self, tmp_path, capsys):
        s2 = math.sqrt(2) / 2
        doc = {"field": "real", "ambient_dim": 5, "subspaces": [
            {"id": "V", "vectors": [[s2, 0, s2, 0, 0], [0, s2, 0, s2, 0]]},
            {"id": "W", "vectors": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                    [0, 0, 0, 0, 1]]},
        ]}
        path = write_file(tmp_path, doc)
        assert main(["matrix", path, "--metric", "fubini_study"]) == 0
        values = np.array(json.loads(capsys.readouterr().out)["values"])
        np.testing.assert_allclose(values, [[0, math.pi / 3],
                                            [math.pi / 2, 0]], atol=1e-9)

    def test_huge_integer_exit_2(self, tmp_path, capsys):
        # a 400-digit integer does not fit a double
        path = write_file(tmp_path, {
            "field": "real", "ambient_dim": 2,
            "subspaces": [{"id": "a", "vectors": [[10 ** 400, 1]]}]})
        assert main(["matrix", path, "--metric", "geodesic"]) == 2
        assert "does not fit a double" in capsys.readouterr().err

    def test_unknown_metric_exit_2(self, containment_file, capsys):
        assert main(["matrix", containment_file, "--metric", "banana"]) == 2
        err = capsys.readouterr().err
        assert "fubini_study" in err and "geodesic" in err

    def test_diagnostic_metric(self, blades_file, capsys):
        assert main(["matrix", blades_file, "--metric", "max_correlation"]) == 0
        values = np.array(json.loads(capsys.readouterr().out)["values"])
        assert np.allclose(np.diag(values), 0, atol=1e-8)

    def test_all_metric_names_run(self, blades_file, capsys):
        from grassdist.cli import _ALL_MATRIX_METRICS
        for name in _ALL_MATRIX_METRICS:
            assert main(["matrix", blades_file, "--metric", name]) == 0
            capsys.readouterr()

    def test_symmetric_metrics_give_symmetric_matrices(self, blades_file, capsys):
        for name in ("gap", "symmetric", "max_correlation"):
            assert main(["matrix", blades_file, "--metric", name]) == 0
            values = np.array(json.loads(capsys.readouterr().out)["values"])
            np.testing.assert_allclose(values, values.T, atol=1e-9)


    @pytest.mark.parametrize("metric", ["max_correlation", "martin"])
    def test_diagnostics_exit_2_on_any_file_holding_zero(self, tmp_path, capsys,
                                                          metric):
        # the diagnostics are undefined when either side is {0}; the rule is
        # the same for every entry, the {0} diagonal entry included
        path = write_file(tmp_path, {"field": "real", "ambient_dim": 2,
                                     "subspaces": [{"id": "z", "vectors": []}]})
        assert main(["matrix", path, "--metric", metric]) == 2
        assert "diagnostics require nonzero subspaces" in capsys.readouterr().err


class TestFileErrors:
    """Every failure to read the input or write ``--output`` exits 2 and
    names the path, with no traceback."""

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert main(["matrix", str(tmp_path), "--metric", "geodesic"]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_input_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["verify", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_output_is_a_directory(self, containment_file, tmp_path, capsys):
        assert main(["matrix", containment_file, "--metric", "geodesic",
                     "--output", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err


class TestVerifyCommand:
    def test_builtin_corpus_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "golden_angles" in out
        assert "all identities verified" in out

    def test_user_file(self, blades_file, capsys):
        assert main(["verify", blades_file]) == 0
        out = capsys.readouterr().out
        assert "pythagorean_identity" in out

    def test_tightened_tolerance_fails(self, capsys):
        assert main(["verify", "--angle-tol", "1e-15"]) == 1
        err = capsys.readouterr().err
        assert "first failing identity" in err

    def test_corrupted_file_exit_2(self, tmp_path, capsys):
        bad = write_file(tmp_path, {
            "field": "real", "ambient_dim": 2,
            "subspaces": [{"id": "a", "vectors": [[1e400, 0]]}]})
        assert main(["verify", bad]) == 2



class TestZeroAngleTol:
    """``--angle-tol 0`` on exact input: V = span(e1, e2) and W = span(e2, e3)
    in R^3 share e2 at angle 0.0 and meet at an exact right angle."""

    @pytest.fixture
    def exact_file(self, tmp_path):
        return write_file(tmp_path, {
            "field": "real", "ambient_dim": 3,
            "subspaces": [{"id": "V", "vectors": [[1, 0, 0], [0, 1, 0]]},
                          {"id": "W", "vectors": [[0, 1, 0], [0, 0, 1]]}]})

    def test_verify_passes(self, exact_file, capsys):
        assert main(["verify", exact_file, "--angle-tol", "0"]) == 0
        assert "all identities verified" in capsys.readouterr().out

    def test_angles_psi_is_right(self, exact_file, capsys):
        assert main(["angles", exact_file, "V", "W", "--angle-tol", "0"]) == 0
        out = capsys.readouterr().out
        assert_angle(report_angles(out)["psi (supplementation)"], math.pi / 2)
        assert "note:" not in out

    def test_martin_is_infinite(self, exact_file, capsys):
        assert main(["matrix", exact_file, "--metric", "martin",
                     "--angle-tol", "0", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        assert rows == ["V,0.0,inf", "W,inf,0.0"]

def test_usage_error_exit_2(capsys):
    assert main(["angles"]) == 2
    assert main(["bogus-command"]) == 2
