import itertools
import json
import math
import re

import numpy as np
import pytest

from grassdist import corpus, verify
from grassdist.angles import AngleRoute, angle_report
from grassdist.cli import main
from grassdist.metrics import METRICS, asymmetric_distance
from grassdist.numerics import DEFAULT_TOL, Field
from grassdist.subspace import random_subspace

R = Field.REAL


def r8_pairs(seed=7):
    """Eight subspaces of R^8 with dims 1..7, as a ``verify`` file holds them."""
    return [(f"v{i}", random_subspace(8, d, R, seed + i))
            for i, d in enumerate([1, 2, 3, 4, 4, 5, 6, 7])]


def route_quantities(v, w, route):
    rep = angle_report(v, w, route)
    return (math.cos(rep.theta_vw) ** 2,
            math.sin(rep.upsilon) ** 2,
            math.sin(rep.psi) ** 2)


def counting(monkeypatch, module, name):
    """Count the calls to ``module.name``; returns the list they append to."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_route_check_takes_one_readout_per_ordered_pair(monkeypatch):
    from grassdist import exterior
    calls = counting(monkeypatch, exterior, "plucker_sums")
    pairs = r8_pairs()
    result = verify._check_routes(pairs, DEFAULT_TOL)
    assert result.passed
    assert result.detail.startswith("3 routes")
    assert len(calls) == len(pairs) * (len(pairs) - 1)


def test_route_check_builds_the_gram_blocks_once_per_ordered_pair(monkeypatch):
    import grassdist.angles as angles_mod
    calls = counting(monkeypatch, angles_mod, "_gram_blocks")
    pairs = r8_pairs()
    assert verify._check_routes(pairs, DEFAULT_TOL).passed
    assert len(calls) == len(pairs) * (len(pairs) - 1)


@pytest.mark.parametrize("route, module, name", [
    (AngleRoute.EXTERIOR, "exterior", "plucker_sums"),
    (AngleRoute.GRAM, "angles", "_gram_blocks"),
], ids=["exterior", "gram"])
def test_an_oracle_report_takes_one_readout_per_direction(monkeypatch, route,
                                                          module, name):
    import importlib
    calls = counting(monkeypatch, importlib.import_module(f"grassdist.{module}"),
                     name)
    (_, v), (_, w) = r8_pairs()[1:3]
    angle_report(v, w, route)
    assert len(calls) == 2


def test_route_check_names_its_worst_pair_and_quantity():
    pairs = r8_pairs()
    result = verify._check_routes(pairs, DEFAULT_TOL)
    m = re.search(r"\((\w+) (\S+)->(\S+), (\w+) vs (\w+)\)$", result.detail)
    assert m, result.detail
    quantity, vid, wid, ra, rb = m.groups()
    subs = dict(pairs)
    k = ("cos2_theta", "sin2_upsilon", "sin2_psi").index(quantity)
    x = route_quantities(subs[vid], subs[wid], AngleRoute(ra))[k]
    y = route_quantities(subs[vid], subs[wid], AngleRoute(rb))[k]
    assert abs(x - y) == result.worst
    # and no other ordered pair, quantity or route pair spreads further
    spread = 0.0
    for (_, v), (_, w) in itertools.permutations(pairs, 2):
        per_route = [route_quantities(v, w, route) for route in AngleRoute]
        for a, b in itertools.combinations(per_route, 2):
            spread = max(spread, max(abs(s - t) for s, t in zip(a, b)))
    assert spread == result.worst


def test_triangle_check_names_its_worst_triple_and_metric():
    # the corpus subspaces per ambient space and field, as ``verify`` groups
    # them; some group has a rounding-level violation
    groups = {}
    for g in corpus.corpus():
        for side, s in (("V", g.v), ("W", g.w)):
            key = (s.ambient_dim, s.field)
            groups.setdefault(key, []).append((f"{g.name}:{side}", s))
    named = 0
    for pairs in groups.values():
        tri = verify._check_triangle(pairs, 1)
        if tri.worst == 0:
            continue
        named += 1
        m = re.search(r"\((\w+): (\S+), (\S+), (\S+)\)$", tri.detail)
        assert m, tri.detail
        metric, u, v, w = m.groups()
        subs = dict(pairs)

        def d(a, b):
            return asymmetric_distance(METRICS[metric], subs[a], subs[b]).value

        assert d(u, w) - d(u, v) - d(v, w) == tri.worst
    assert named


def test_checks_without_a_culprit_say_none():
    # {0} and the whole space: every triangle holds exactly
    pairs = [(f"e{k}", random_subspace(3, k, R, 1)) for k in (0, 3)]
    tri = verify._check_triangle(pairs, 0)
    assert tri.worst == 0.0
    assert tri.detail.endswith("(none)")


@pytest.mark.parametrize("ambient, routes", [(12, "3 routes"), (15, "2 routes")])
def test_route_check_runs_the_exterior_route_up_to_its_cap(ambient, routes):
    # the exterior oracle covers every ambient dimension up to AMBIENT_CAP
    # (14); above it the check compares the other two routes and raises
    pairs = [(f"v{d}", random_subspace(ambient, d, R, d)) for d in (1, 2, 4)]
    result = verify._check_routes(pairs, DEFAULT_TOL)
    assert result.detail.startswith(routes), result.detail
    assert result.passed


def verify_file(tmp_path, ambient, dims):
    """A ``verify`` input of random subspaces of R^ambient, one per dim."""
    rng = np.random.default_rng(ambient)
    doc = {"field": "real", "ambient_dim": ambient,
           "subspaces": [{"id": f"v{i}",
                          "vectors": rng.standard_normal((d, ambient)).tolist()}
                         for i, d in enumerate(dims)]}
    path = tmp_path / f"r{ambient}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("ambient, dims, routes_left_out", [
    (16, (1, 2, 9, 15), ("exterior",)),
    (21, (1, 2, 2, 3), ("gram", "exterior")),
    (30, (1, 5, 14, 29, 29), ("gram", "exterior")),
])
def test_verify_leaves_out_each_enumerating_leg_above_its_cap(tmp_path, capsys, ambient,
                                                               dims, routes_left_out):
    # the Gram route's Psi is capped at ambient 20, the exterior route and
    # the two identities at AMBIENT_CAP (14); above its cap a leg is left
    # out and the detail line says so, so verify neither exits 2 at ambient
    # 21 nor enumerates the C(30, 14) subsets of the Pythagorean sum at 30
    assert main(["verify", verify_file(tmp_path, ambient, dims)]) == 0
    checks = [ln.strip() for ln in capsys.readouterr().out.splitlines()
              if ln.strip().startswith("[")]
    assert len(checks) == 5 and all(ln.startswith("[pass]") for ln in checks)
    line = {ln.split(":")[0].split("] ")[1]: ln for ln in checks}
    for name in ("pythagorean_identity", "sine_identity"):
        assert f"left out at ambient {ambient}" in line[name]
    for route in ("gram", "exterior"):
        left_out = f"{route} left out above ambient" in line["route_agreement"]
        assert left_out == (route in routes_left_out)
