"""Tests of the benchmark's own parts: generator, reference, tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gen  # noqa: E402
import reference  # noqa: E402
from tracer import LAYERS, Installation, Tracer  # noqa: E402

import grassdist  # noqa: E402
from grassdist import cli  # noqa: E402

SMALL_MATRIX = dict(gen.WORKLOADS["matrix-r30"], ambient_dim=6, count=12,
                    dims=[1, 5], shared_plane_share=0.25)


def _small_matrix_file(tmp_path, seed=3):
    subs = gen.matrix_subspaces(SMALL_MATRIX, seed)
    path = tmp_path / "input.json"
    path.write_text(gen.subspace_file(subs, "real", 6))
    return subs, path


def _matrix_output(path, out):
    rc = cli.main(["matrix", str(path), "--metric", "geodesic", "--format",
                   "json", "--output", str(out)])
    assert rc == 0
    return out.read_bytes()


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["matrix-r30", "matrix-c400"])
def test_same_seed_gives_byte_identical_files(name):
    params = gen.WORKLOADS[name]
    files = [gen.subspace_file(gen.matrix_subspaces(params, seed),
                               params["field"], params["ambient_dim"])
             for seed in (5, 5, 6)]
    assert files[0] == files[1]
    assert files[0] != files[2]


def test_request_pool_is_seeded_with_exact_shares():
    params = gen.WORKLOADS["report-pairs"]
    a, b = gen.report_pool(params, 5), gen.report_pool(params, 5)
    assert all(np.array_equal(x.v_columns, y.v_columns)
               and np.array_equal(x.w_columns, y.w_columns) for x, y in zip(a, b))
    props = gen.request_properties(a)
    assert props["n_histogram"] == {"6": 840, "50": 300, "500": 60}
    assert sum(r.r_shared > 0 for r in a) == 400


def test_matrix_structure_matches_parameters():
    params = gen.WORKLOADS["matrix-c400"]
    k = params["count"]
    subs = gen.matrix_subspaces(params, 1)
    assert sum(s.reduced for s in subs) == round(params["reduced_share"] * k)
    assert sum(s.plane for s in subs) == round(params["shared_plane_share"] * k)
    assert sorted(s.dim for s in subs) == sorted(
        int(d) for d in np.round(np.linspace(*params["dims"], k)))
    for s in subs:
        assert s.rows.shape[0] == s.dim + s.reduced


# -- reference ---------------------------------------------------------------

def test_reference_accepts_true_report_and_flags_1e_8():
    for req in gen.report_pool(gen.WORKLOADS["report-pairs"], 2)[:60]:
        field = grassdist.Field(req.field)
        v = grassdist.Subspace.from_columns(req.v_columns, field)
        w = grassdist.Subspace.from_columns(req.w_columns, field)
        rep = grassdist.angle_report(v, w)
        got = {"theta_vw": rep.theta_vw, "theta_wv": rep.theta_wv,
               "upsilon": rep.upsilon, "psi": rep.psi,
               "projection_factor": grassdist.projection_factor(v, w),
               "principal_angles": rep.principal_angles}
        r = max(req.r_shared, req.p + req.q - req.ambient_dim)
        want = reference.report(req.v_columns, req.w_columns, req.p, req.q,
                                req.ambient_dim, r, req.field == "complex")
        assert reference.compare_report(got, want) == []
        for key in got:
            bad = dict(got)
            bad[key] = np.asarray(got[key]) + 1e-8
            assert reference.compare_report(bad, want) == [key]


def test_reference_accepts_true_matrix_and_flags_1e_8(tmp_path):
    subs, path = _small_matrix_file(tmp_path)
    _matrix_output(path, tmp_path / "out.json")
    values = np.array(json.loads((tmp_path / "out.json").read_text())["values"])
    want = reference.distance_matrix(
        subs, 6, "geodesic", lambda a, b: gen.pair_intersection_dim(a, b, 6))
    assert not np.isnan(want).any()
    assert reference.compare_matrix(values, want) == 0
    values[3, 7] += 1e-8
    assert reference.compare_matrix(values, want) == 1


def test_reference_rejects_a_wrong_intersection_dimension():
    req = next(r for r in gen.report_pool(gen.WORKLOADS["report-pairs"], 2)
               if r.r_shared and r.p + r.q <= r.ambient_dim)
    with pytest.raises(reference.GeneratorMismatch):
        reference.principal_angles(req.v_columns, req.w_columns, req.p, req.q, 0)


# -- tracer ------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    t = Tracer()
    # A [0, 10] holds B [1, 4] and C [5, 6]; B holds D [2, 3]
    for name, parent, start, end in [("A", -1, 0, 10), ("B", 0, 1, 4),
                                     ("D", 1, 2, 3), ("C", 0, 5, 6)]:
        t.name_id.append(t._intern(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    assert t.summary() == {"A": (1, 6.0), "B": (1, 2.0), "D": (1, 1.0),
                           "C": (1, 1.0)}


def test_wrapped_calls_nest_and_close_on_error():
    t = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf = t.span("leaf", leaf)

    def outer():
        leaf(1)
        with pytest.raises(ValueError):
            leaf(-1)
        return leaf(2)

    outer = t.span("outer", outer)
    assert outer() == 2
    a = t.arrays()
    names = [t.names[i] for i in a["name_id"]]
    assert names == ["outer", "leaf", "leaf", "leaf"]
    assert list(a["parent"]) == [-1, 0, 0, 0]
    assert np.all(a["end"] >= a["start"])
    calls, self_s = t.summary()["outer"]
    assert calls == 1 and 0 <= self_s <= a["end"][0] - a["start"][0]


def test_trace_is_written_out(tmp_path):
    t = Tracer()
    t.span("f", lambda: None)()
    t.write(tmp_path / "trace.npz")
    data = np.load(tmp_path / "trace.npz")
    assert list(data["names"]) == ["f"]
    assert data["start"].shape == data["end"].shape == (1,)


def _snapshot():
    """Every attribute of every grassdist module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "grassdist" or name.startswith("grassdist."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj):
                    for cattr, cobj in vars(obj).items():
                        out[(name, attr, cattr)] = cobj
    out[("numpy.linalg", "svd")] = np.linalg.svd
    return out


def _lookup(key):
    module = sys.modules[key[0]]
    obj = vars(module)[key[1]]
    return vars(obj)[key[2]] if len(key) == 3 else obj


def test_uninstall_restores_every_attribute():
    for layer in LAYERS:
        importlib.import_module(f"grassdist.{layer}")
    before = _snapshot()
    installed = Installation(Tracer())
    try:
        for alias in [("grassdist.metrics", "principal_angles"),
                      ("grassdist.angles", "principal_decomposition"),
                      ("grassdist.subspace", "clamp_cosine"),
                      ("grassdist", "angle_report"),
                      ("grassdist.subspace", "Subspace", "from_columns"),
                      ("numpy.linalg", "svd")]:
            assert _lookup(alias) is not before[alias], alias
    finally:
        installed.uninstall()
    for key, obj in before.items():
        assert _lookup(key) is obj, key


def test_traced_matrix_output_is_byte_identical(tmp_path):
    _, path = _small_matrix_file(tmp_path)
    plain = _matrix_output(path, tmp_path / "plain.json")
    tracer = Tracer()
    installed = Installation(tracer)
    try:
        traced = _matrix_output(path, tmp_path / "traced.json")
    finally:
        installed.uninstall()
    assert traced == plain
    summary = tracer.summary()
    assert summary["metrics.asymmetric_distance"][0] == 12 * 12
    assert tracer.counts["numerics.clamp_cosine"] > 0
