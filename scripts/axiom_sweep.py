"""Sweep random subspace triples and measure how close each asymmetric
metric extension comes to violating the oriented triangle inequality.

Every run is seeded; a healthy build reports worst slacks at roundoff
scale (about -1e-15) and zero violations.  The exit status is 1 when any
violation (slack below -1e-8) was counted, else 0.

Usage:
    python scripts/axiom_sweep.py --triples 5000 --ambient 6 --field real
"""

import argparse
import itertools
import sys
import time

import numpy as np

from grassdist.metrics import METRICS, extension_from_angles
from grassdist.numerics import Field
from grassdist.subspace import principal_angles, random_subspace


def sweep(triples: int, ambient: int, field: Field, seed: int):
    rng = np.random.default_rng(seed)
    worst = {name: np.inf for name in METRICS}
    violations = {name: 0 for name in METRICS}
    t0 = time.time()
    for _ in range(triples):
        subs = [random_subspace(ambient, int(rng.integers(0, ambient + 1)),
                                field, int(rng.integers(2 ** 63)))
                for _ in range(3)]
        theta = {}
        for a, b in itertools.combinations(range(3), 2):
            theta[a, b] = theta[b, a] = principal_angles(subs[a], subs[b])
        for name, desc in METRICS.items():
            d = {(a, b): extension_from_angles(desc, theta[a, b],
                                               subs[a].dim, subs[b].dim)
                 for a, b in itertools.permutations(range(3), 2)}
            for a, b, c in itertools.permutations(range(3), 3):
                slack = d[a, b] + d[b, c] - d[a, c]
                worst[name] = min(worst[name], slack)
                violations[name] += slack < -1e-8
    elapsed = time.time() - t0
    print(f"{triples} triples in {ambient}-dim {field.value} space "
          f"({elapsed:.1f} s, seed {seed})")
    print(f"{'metric':<22}{'worst slack':>14}{'violations':>12}")
    for name in METRICS:
        print(f"{name:<22}{worst[name]:>14.2e}{violations[name]:>12}")
    return sum(violations.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triples", type=int, default=5000)
    parser.add_argument("--ambient", type=int, default=6)
    parser.add_argument("--field", choices=["real", "complex"], default="real")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    violations = sweep(args.triples, args.ambient, Field(args.field), args.seed)
    sys.exit(1 if violations else 0)


if __name__ == "__main__":
    main()
