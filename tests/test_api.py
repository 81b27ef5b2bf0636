"""The public API: which callables take a ``Tolerance`` or a route."""

import inspect

from grassdist import (angles, cli, corpus, exterior, io, metrics, numerics,
                       subspace, verify)

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
