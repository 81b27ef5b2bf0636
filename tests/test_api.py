"""The public API: which callables take a ``Tolerance`` or a route."""

import functools
import inspect
import itertools

import pytest

from grassdist import (angles, cli, corpus, exterior, io, metrics, numerics,
                       subspace, verify)
from grassdist.errors import DimensionError

# Every public function or method with a ``tol`` parameter makes a decision
# with it: a rank, a containment or intersection, Psi's r and its fragile
# band, Martin's infinity, or a verify pass threshold.  Derivations from the
# principal angles have no cutoff and take no tolerance.
TOLERANCE_READERS = {
    "subspace.Subspace.from_columns", "io.parse_subspace_file",
    "io.load_subspace_file", "subspace.Subspace.contains",
    "subspace.is_partially_orthogonal", "subspace.project_onto",
    "angles.orthogonal_partition_check",
    "angles.supplementation_angle", "angles.angle_report",
    "metrics.diagnostic_quantities",
    "verify.run_verification",
}


def _public_callables(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and callable(member):
                    yield f"{short}.{name}.{attr}", member
        elif callable(obj):
            yield f"{short}.{name}", obj


def test_only_decisions_take_a_tolerance():
    takers = {name
              for module in (subspace, angles, metrics, io, verify)
              for name, fn in _public_callables(module)
              if "tol" in inspect.signature(fn).parameters}
    assert takers == TOLERANCE_READERS


def test_only_angle_report_takes_a_route():
    # the standalone angles are the default route; an oracle route is read
    # through the report, one readout per direction
    takers = {name
              for module in (subspace, angles, metrics, io, verify, exterior,
                             numerics, corpus, cli)
              for name, fn in _public_callables(module)
              if "route" in inspect.signature(fn).parameters}
    assert takers == {"angles.angle_report"}


def _partition_check(v, w):
    return angles.orthogonal_partition_check(
        v, subspace.Subspace.zero(v.ambient_dim, v.field), w)


# Every public callable on a pair of subspaces, as f(V, W).
PAIR_CALLABLES = {
    "Subspace.contains": lambda v, w: v.contains(w),
    **{f"subspace.{name}": getattr(subspace, name)
       for name in ("principal_angles", "principal_decomposition",
                    "is_partially_orthogonal", "projective_split",
                    "project_onto")},
    **{f"metrics.{name}": getattr(metrics, name)
       for name in ("containment_gap", "gap", "directional_distance",
                    "symmetric_distance", "diagnostic_quantities")},
    # one metric name stands for all: the pair check does not depend on it
    "metrics.asymmetric_distance": functools.partial(
        metrics.asymmetric_distance, "geodesic"),
    "metrics.equal_dim_distance": functools.partial(
        metrics.equal_dim_distance, "geodesic"),
    **{f"angles.{name}": getattr(angles, name)
       for name in ("asymmetric_angle", "disjointness_angle",
                    "supplementation_angle", "projection_factor")},
    **{f"angles.angle_report[{route.value}]":
       functools.partial(angles.angle_report, route=route)
       for route in angles.AngleRoute},
    "angles.orthogonal_partition_check": _partition_check,
    "exterior.plucker_angles": exterior.plucker_angles,
}


def _mismatched_pairs():
    """Ordered pairs of {0}, a line, a plane and the whole space that differ
    in ambient dimension or in field."""
    R, C = numerics.Field.REAL, numerics.Field.COMPLEX
    subs = [subspace.random_subspace(n, d, field, 10 * n + d)
            for n, field in ((3, R), (4, R), (3, C))
            for d in sorted({0, 1, 2, n})]
    return [(v, w) for v, w in itertools.product(subs, repeat=2)
            if (v.ambient_dim, v.field) != (w.ambient_dim, w.field)]


@pytest.mark.parametrize("name", sorted(PAIR_CALLABLES))
def test_every_pair_function_rejects_a_mismatched_pair(name):
    fn = PAIR_CALLABLES[name]
    pairs = _mismatched_pairs()
    assert {"ambient", "field"} == {
        "ambient" if v.ambient_dim != w.ambient_dim else "field"
        for v, w in pairs}
    for v, w in pairs:
        with pytest.raises(DimensionError):
            fn(v, w)
