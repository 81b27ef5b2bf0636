"""Per-layer metrics of a traced pass, computed from span summaries.

Every ``_s`` value is summed self time (a span's duration minus its child
spans); ``_calls`` values are span counts.  A pass is one ``grassdist matrix``
call, the workload's fixed set of traced requests, or its two ``grassdist
verify`` calls.
"""

from __future__ import annotations

from tracer import LAYERS


def _self(summary, *names) -> float:
    return float(sum(summary.get(n, (0, 0.0))[1] for n in names))


def _calls(summary, *names) -> int:
    return int(sum(summary.get(n, (0, 0.0))[0] for n in names))


def _layer_self(summary, layer: str) -> float:
    prefix = layer + "."
    total = sum(t for name, (_, t) in summary.items() if name.startswith(prefix))
    if layer == "numerics":
        total += _self(summary, "numpy.linalg.svd")
    return float(total)


# Hooks run after a span closes; they add the counters below that are not
# span counts.
def _parsed(tracer, args, result):
    tracer.add("io.parse_bytes", len(args[0]))


def _written(tracer, args, result):
    tracer.add("io.output_bytes", len(result))


def _built(tracer, args, result):
    tracer.add("subspace.from_columns_reduced", int(result.was_reduced))


def _verified(tracer, args, result):
    tracer.add("verify.checks", len(result))
    tracer.add("verify.checks_failed", sum(not r.passed for r in result))


OBSERVERS = {
    "io.parse_subspace_file": _parsed,
    "io.DistanceMatrixOutput.to_json": _written,
    "io.DistanceMatrixOutput.to_csv": _written,
    "subspace.Subspace.from_columns": _built,
    "verify.run_verification": _verified,
}

# (name, unit, better, value from (summary, counts, results per pass))
_DEFS = [
    ("io.parse_s", "s", "lower",
     lambda s, c, r: _self(s, "io.load_subspace_file", "io.parse_subspace_file")),
    ("io.parse_bytes", "bytes", "lower", lambda s, c, r: c.get("io.parse_bytes", 0)),
    ("io.to_json_s", "s", "lower",
     lambda s, c, r: _self(s, "io.DistanceMatrixOutput.to_json")),
    ("io.to_csv_s", "s", "lower",
     lambda s, c, r: _self(s, "io.DistanceMatrixOutput.to_csv")),
    ("io.output_bytes", "bytes", "lower", lambda s, c, r: c.get("io.output_bytes", 0)),
    ("subspace.from_columns_calls", "count", "lower",
     lambda s, c, r: _calls(s, "subspace.Subspace.from_columns")),
    ("subspace.from_columns_s", "s", "lower",
     lambda s, c, r: _self(s, "subspace.Subspace.from_columns")),
    ("subspace.from_columns_reduced", "count", "lower",
     lambda s, c, r: c.get("subspace.from_columns_reduced", 0)),
    ("subspace.principal_decomposition_calls", "count", "lower",
     lambda s, c, r: _calls(s, "subspace.principal_decomposition")),
    ("subspace.principal_decomposition_s", "s", "lower",
     lambda s, c, r: _self(s, "subspace.principal_decomposition")),
    ("subspace.intersection_dim_calls", "count", "lower",
     lambda s, c, r: _calls(s, "subspace.intersection_dim")),
    ("subspace.intersection_dim_s", "s", "lower",
     lambda s, c, r: _self(s, "subspace.intersection_dim")),
    ("subspace.complete_basis_s", "s", "lower",
     lambda s, c, r: _self(s, "subspace.complete_basis")),
    ("numerics.orthonormalize_s", "s", "lower",
     lambda s, c, r: _self(s, "numerics.orthonormalize")),
    ("numerics.clamp_cosine_calls", "count", "lower",
     lambda s, c, r: c.get("numerics.clamp_cosine", 0)),
    ("numerics.svd_calls", "count", "lower",
     lambda s, c, r: _calls(s, "numpy.linalg.svd")),
    ("numerics.svd_s", "s", "lower", lambda s, c, r: _self(s, "numpy.linalg.svd")),
    ("numerics.svd_per_result", "ratio", "lower",
     lambda s, c, r: _calls(s, "numpy.linalg.svd") / r),
    ("angles.angle_report_calls", "count", "lower",
     lambda s, c, r: _calls(s, "angles.angle_report")),
    ("angles.angle_report_s", "s", "lower",
     lambda s, c, r: _self(s, "angles.angle_report")),
    ("angles.projection_factor_s", "s", "lower",
     lambda s, c, r: _self(s, "angles.projection_factor")),
    ("angles.gram_route_s", "s", "lower",
     lambda s, c, r: _self(s, "angles.cos2_theta_from_gram",
                           "angles.sin2_upsilon_from_gram", "angles.sin2_psi_from_gram")),
    ("metrics.asymmetric_distance_calls", "count", "lower",
     lambda s, c, r: _calls(s, "metrics.asymmetric_distance")),
    ("metrics.asymmetric_distance_s", "s", "lower",
     lambda s, c, r: _self(s, "metrics.asymmetric_distance")),
    ("exterior.blade_from_basis_calls", "count", "lower",
     lambda s, c, r: _calls(s, "exterior.blade_from_basis")),
    ("exterior.blade_from_basis_s", "s", "lower",
     lambda s, c, r: _self(s, "exterior.blade_from_basis")),
    ("exterior.products_s", "s", "lower",
     lambda s, c, r: _self(s, "exterior.contraction", "exterior.wedge",
                           "exterior.regressive")),
    ("cli.cmd_matrix_s", "s", "lower", lambda s, c, r: _self(s, "cli.cmd_matrix")),
    ("cli.cmd_verify_s", "s", "lower", lambda s, c, r: _self(s, "cli.cmd_verify")),
    ("verify.checks", "count", "higher", lambda s, c, r: c.get("verify.checks", 0)),
    ("verify.checks_failed", "count", "lower",
     lambda s, c, r: c.get("verify.checks_failed", 0)),
] + [(f"{layer}.self_s", "s", "lower",
      lambda s, c, r, layer=layer: _layer_self(s, layer)) for layer in LAYERS]

OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")

PER_LAYER = [(name, unit, better) for name, unit, better, _ in _DEFS] + [OVERHEAD]

# Metrics that count work; they must repeat exactly for a given seed.
COUNTS = [name for name, unit, _, _ in _DEFS if unit in ("count", "bytes")] + [
    "numerics.svd_per_result"]


def compute(summary: dict, counts: dict, results: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass that produced ``results``
    results (matrix entries, requests or verify checks)."""
    return {name: fn(summary, counts, results) for name, _, _, fn in _DEFS}
