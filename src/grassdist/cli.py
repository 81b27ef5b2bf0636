"""Command line interface.

Subcommands:

* ``angles``  - angle report for one ordered pair of subspaces from a file.
* ``matrix``  - pairwise distance matrix under a named metric (row->column).
* ``verify``  - identity suites on a file or the built-in example corpus.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error (an
unreadable input or unwritable ``--output`` included), 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .angles import AngleRoute, _projection_factor, angle_report
from .errors import DimensionError, NumericalDegeneracyError
from .io import (DistanceMatrixOutput, SubspaceFileError, load_subspace_file)
from .metrics import (DIAGNOSTICS, METRICS, asymmetric_distance, containment_gap,
                      diagnostic_quantities, directional_distance,
                      extension_from_angles, gap, symmetric_distance, symmetrize)
from .numerics import Tolerance
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

_EXTRA_DISTANCES = ("containment_gap", "gap", "directional", "symmetric")
_ALL_MATRIX_METRICS = tuple(METRICS) + _EXTRA_DISTANCES + DIAGNOSTICS


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_tol=args.rank_tol, angle_tol=args.angle_tol)


def _tolerance_flag(text: str) -> float:
    """A ``--rank-tol`` or ``--angle-tol`` value, held to ``Tolerance``'s
    rule so that a negative or non-finite value is a usage error."""
    try:
        value = float(text)
        Tolerance(value, value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return value


def _fmt_angle(radians: float) -> str:
    return f"{math.degrees(radians):12.6f} deg   ({radians!r} rad)"


def cmd_angles(args) -> int:
    tol = _tolerance(args)
    sfile = load_subspace_file(args.input, tol)
    try:
        v = sfile.get(args.id_from)
        w = sfile.get(args.id_to)
    except KeyError as exc:
        print(f"error: no subspace with id {exc.args[0]!r} in {args.input}",
              file=sys.stderr)
        return EXIT_USAGE
    report = angle_report(v, w, AngleRoute(args.route), tol)
    p, q, n = report.dims
    print(f"pair: {args.id_from} -> {args.id_to}   "
          f"(field={sfile.field.value}, ambient={n}, dims p={p} q={q})")
    print(f"  theta {args.id_from}->{args.id_to}: {_fmt_angle(report.theta_vw)}")
    print(f"  theta {args.id_to}->{args.id_from}: {_fmt_angle(report.theta_wv)}")
    print(f"  upsilon (disjointness):  {_fmt_angle(report.upsilon)}")
    print(f"  psi (supplementation):   {_fmt_angle(report.psi)}")
    pa = ", ".join(f"{math.degrees(t):.6f}" for t in report.principal_angles)
    print(f"  principal angles (deg):  [{pa}]")
    # Theta from the principal angles; on an oracle route theta_vw is the oracle's
    theta = extension_from_angles(METRICS["fubini_study"],
                                  report.principal_angles, p, q)
    print(f"  projection factor:       {_projection_factor(theta, sfile.field)!r}")
    if report.psi_ill_conditioned:
        print("  note: psi case decision is near-degenerate "
              "(principal angle close to the zero cutoff)")
    return EXIT_OK


def _matrix_entry(name: str, v, w, tol: Tolerance) -> float:
    if name in METRICS:
        return asymmetric_distance(METRICS[name], v, w)
    if name == "containment_gap":
        return containment_gap(v, w)
    if name == "gap":
        return gap(v, w)
    if name == "directional":
        return directional_distance(v, w)
    if name == "symmetric":
        return symmetric_distance(v, w)
    return diagnostic_quantities(v, w, tol)[name]


def cmd_matrix(args) -> int:
    if args.metric not in _ALL_MATRIX_METRICS:
        print(f"error: unknown metric {args.metric!r}; valid names: "
              + ", ".join(_ALL_MATRIX_METRICS), file=sys.stderr)
        return EXIT_USAGE
    tol = _tolerance(args)
    sfile = load_subspace_file(args.input, tol)
    ids = sfile.ids()
    subs = [sub for _, sub in sfile.subspaces]
    k = len(subs)
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            values[i, j] = _matrix_entry(args.metric, subs[i], subs[j], tol)
    if args.symmetrize != "none":
        values = symmetrize(values, values.T, args.symmetrize)
    units = METRICS[args.metric].units if args.metric in METRICS else "dimensionless"
    out = DistanceMatrixOutput(metric=args.metric, ids=ids, values=values,
                               units=units)
    text = out.to_csv() if args.format == "csv" else out.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    if args.input is None:
        results = run_verification(None, tol, args.seed)
        source = "built-in corpus"
    else:
        sfile = load_subspace_file(args.input, tol)
        results = run_verification(sfile.subspaces, tol, args.seed)
        source = args.input
    print(f"verification on {source}:")
    first_failure = None
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"  [{status}] {res.name}: {res.detail}")
        if not res.passed and first_failure is None:
            first_failure = res.name
    if first_failure is not None:
        print(f"verification failed; first failing identity: {first_failure}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all identities verified")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassdist",
        description="Angles and asymmetric distances between linear subspaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--rank-tol", type=_tolerance_flag, default=1e-10)
        p.add_argument("--angle-tol", type=_tolerance_flag, default=1e-9)

    p_angles = sub.add_parser("angles", help="angle report for one pair")
    p_angles.add_argument("input", help="subspace file (JSON)")
    p_angles.add_argument("id_from")
    p_angles.add_argument("id_to")
    p_angles.add_argument("--route", choices=sorted(r.value for r in AngleRoute),
                          default="principal")
    add_tol(p_angles)
    p_angles.set_defaults(func=cmd_angles)

    p_matrix = sub.add_parser("matrix", help="pairwise distance matrix")
    p_matrix.add_argument("input", help="subspace file (JSON)")
    p_matrix.add_argument("--metric", required=True)
    p_matrix.add_argument("--symmetrize", choices=["none", "max", "mean"],
                          default="none")
    p_matrix.add_argument("--format", choices=["json", "csv"], default="json")
    p_matrix.add_argument("--output", default=None)
    add_tol(p_matrix)
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", help="run the identity suites")
    p_verify.add_argument("input", nargs="?", default=None,
                          help="subspace file; omit for the built-in corpus")
    p_verify.add_argument("--seed", type=int, default=0)
    add_tol(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (SubspaceFileError, OSError, DimensionError) as exc:
        # an OSError from opening a file names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
