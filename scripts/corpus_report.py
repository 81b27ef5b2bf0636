"""Print the full angle report for every built-in example pair, with all
three computational routes side by side.

Usage:
    python scripts/corpus_report.py
"""

import math

from grassdist.angles import AngleRoute, angle_report
from grassdist.corpus import corpus

ROUTES = [AngleRoute.PRINCIPAL, AngleRoute.GRAM, AngleRoute.EXTERIOR]


def deg(x: float) -> str:
    return f"{math.degrees(x):8.3f}"


def main():
    header = (f"{'pair':<26}{'dims':>8}  {'theta_i (deg)':<20}"
              f"{'Theta':>9}{'Theta rev':>10}{'Upsilon':>9}{'Psi':>9}"
              f"{'route spread':>14}")
    print(header)
    print("-" * len(header))
    for g in corpus():
        reports = [angle_report(g.v, g.w, route) for route in ROUTES]
        spread = 0.0
        for key in ("theta_vw", "upsilon", "psi"):
            vals = [getattr(rep, key) for rep in reports]
            spread = max(spread, max(vals) - min(vals))
        rep = reports[0]
        theta = ", ".join(f"{math.degrees(t):.1f}" for t in rep.principal_angles)
        print(f"{g.name:<26}{g.v.dim}/{g.w.dim}/{g.v.ambient_dim:>2}   "
              f"{theta:<20}"
              f"{deg(rep.theta_vw):>9}"
              f"{deg(rep.theta_wv):>10}"
              f"{deg(rep.upsilon):>9}"
              f"{deg(rep.psi):>9}"
              f"{spread:>14.2e}")


if __name__ == "__main__":
    main()
