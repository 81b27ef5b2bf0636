"""Benchmark worker: runs one workload against grassdist in its own process.

Started by ``run.py`` as ``python3 perfbench/worker.py CONFIG.json``, so that
its peak RSS belongs to the workload alone.  It drives the public entry
points in-process, closed loop with one caller, and writes its timings and
outputs to the files named in the config.  With ``trace`` set it alternates
untraced and traced passes and reports the traced passes' per-layer figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gen
import layer_metrics
from tracer import Installation, Tracer


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import grassdist
    import grassdist.cli
    where = Path(grassdist.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"grassdist imported from {where}, not from {root / 'src'}")
    return grassdist


class Failures:
    """Operations that raised, with the first traceback kept for the log."""

    def __init__(self) -> None:
        self.count = 0
        self.first: str | None = None

    def record(self) -> None:
        self.count += 1
        if self.first is None:
            self.first = traceback.format_exc()


# ---------------------------------------------------------------------------
# Workloads.  Each returns (op, results, finish): ``op(i)`` runs operation
# ``i % len(results)``, timing only the program, and returns its wall time;
# ``results[j]`` is the number of results distinct operation j yields;
# ``finish()`` returns the outputs for the correctness check.
# ---------------------------------------------------------------------------

def matrix_workload(cfg, params, grassdist, failures):
    cli = grassdist.cli
    work = Path(cfg["workdir"])
    out = work / f"out.{params['format']}"
    argv = ["matrix", str(work / "input.json"), "--metric", params["metric"],
            "--format", params["format"], "--output", str(out)]
    cli.main(["matrix", str(work / "warmup.json"), "--metric", params["metric"],
              "--format", params["format"], "--output", str(work / "warmup.out")])
    digests: list[str] = []
    codes: list[int] = []

    def op(i):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            failures.record()
            rc = -1
        wall = time.perf_counter() - t0
        codes.append(rc)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest()
                       if rc == 0 else "")
        return wall

    def finish():
        return {"exit_codes": codes, "digests": digests, "output": str(out)}

    return op, [params["count"] ** 2], finish


def report_workload(cfg, params, grassdist, failures):
    pool = gen.report_pool(params, cfg["seed"])
    first: list[dict | None] = [None] * len(pool)
    fails = [0] * len(pool)

    def run_one(req):
        field = grassdist.Field(req.field)
        v = grassdist.Subspace.from_columns(req.v_columns, field)
        w = grassdist.Subspace.from_columns(req.w_columns, field)
        rep = grassdist.angle_report(v, w)
        return v, w, rep, grassdist.projection_factor(v, w)

    for req in pool[:20]:
        run_one(req)

    def op(i):
        j = i % len(pool)
        t0 = time.perf_counter()
        try:
            v, w, rep, pf = run_one(pool[j])
        except Exception:
            wall = time.perf_counter() - t0
            failures.record()
            fails[j] += 1
            return wall
        wall = time.perf_counter() - t0
        row = {"theta_vw": rep.theta_vw, "theta_wv": rep.theta_wv,
               "upsilon": rep.upsilon, "psi": rep.psi, "projection_factor": pf,
               "principal_angles": list(rep.principal_angles),
               "dims": list(rep.dims), "reduced": [v.was_reduced, w.was_reduced]}
        if first[j] is None:
            first[j] = row
        elif row != first[j]:
            fails[j] += 1
        return wall

    def finish():
        return {"rows": first, "fails": fails}

    return op, [1] * len(pool), finish


def verify_workload(cfg, params, grassdist, failures):
    cli = grassdist.cli
    work = Path(cfg["workdir"])
    seed = str(cfg["seed"])
    # the corpus call runs golden_angles and five identity suites; the file
    # call runs the five suites
    calls = [(["verify", "--seed", seed], 6),
             (["verify", str(work / "input.json"), "--seed", seed], 5)]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", str(work / "warmup.json"), "--seed", seed])
    outcomes: list[dict] = []

    def op(i):
        argv, checks = calls[i % len(calls)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
        except Exception:
            failures.record()
            rc = -1
        wall = time.perf_counter() - t0
        lines = [ln.strip() for ln in buf.getvalue().splitlines()]
        outcomes.append({"exit_code": rc, "checks": checks,
                         "passed": sum(ln.startswith("[pass]") for ln in lines)})
        return wall

    def finish():
        return {"outcomes": outcomes}

    return op, [checks for _, checks in calls], finish


WORKLOAD_KINDS = {"matrix": matrix_workload, "report": report_workload,
                  "verify": verify_workload}


def timed_run(op, distinct: int, seconds: float) -> tuple[list[float], float]:
    """Closed loop, one caller: operation i + 1 starts when i has ended.  The
    run cycles through the distinct operations until ``seconds`` have passed,
    and completes at least one cycle.  Returns each operation's wall time and
    the wall time of the whole loop."""
    start = time.perf_counter()
    deadline = start + seconds
    walls: list[float] = []
    while len(walls) < distinct or time.perf_counter() < deadline:
        walls.append(op(len(walls)))
    return walls, time.perf_counter() - start


def traced_run(op, distinct: int, seconds: float, results: int, trace_path: Path):
    """Alternate untraced and traced passes over the distinct operations
    until ``seconds`` have passed; every traced pass must count exactly the
    same work."""
    plain_walls, traced_walls, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while not plain_walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for i in range(distinct):
            op(i)
        plain_walls.append(time.perf_counter() - t0)

        tracer = Tracer()
        traced_op = tracer.span("bench.operation", op)
        installed = Installation(tracer, observers=layer_metrics.OBSERVERS)
        try:
            t0 = time.perf_counter()
            for i in range(distinct):
                traced_op(i)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            installed.uninstall()
        per_pass.append(layer_metrics.compute(tracer.summary(), tracer.counts,
                                              results))
        if len(per_pass) == 1:
            tracer.write(trace_path)
    return plain_walls, traced_walls, per_pass


def main(config_path: str) -> None:
    cfg = json.loads(Path(config_path).read_text())
    root = Path(cfg["root"])
    grassdist = _import_program(root)
    params = gen.WORKLOADS[cfg["workload"]]
    failures = Failures()
    run_op, results, finish = WORKLOAD_KINDS[params["kind"]](
        cfg, params, grassdist, failures)
    distinct = len(results)
    reps = [0] * distinct

    def op(i):
        reps[i % distinct] += 1
        return run_op(i)

    report: dict = {"distinct": distinct, "reps": reps}
    if cfg["trace"]:
        plain, traced, per_pass = traced_run(
            op, distinct, cfg["seconds"], sum(results),
            Path(cfg["workdir"]) / "trace.npz")
        report.update(plain_walls=plain, traced_walls=traced, per_pass=per_pass)
    else:
        walls, loop_s = timed_run(op, distinct, cfg["seconds"])
        report.update(walls=walls, loop_s=loop_s,
                      results=sum(results[i % distinct] for i in range(len(walls))))
    report.update(
        raised=failures.count,
        first_traceback=failures.first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        outputs=finish(),
    )
    Path(cfg["result"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
