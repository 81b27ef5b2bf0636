import itertools
import json
import math
import re
import sys

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
    result = verify._check_routes(verify._PairTable(pairs), DEFAULT_TOL)
    assert result.passed
    assert result.detail.startswith("3 routes")
    assert len(calls) == len(pairs) * (len(pairs) - 1)


def test_route_check_builds_the_gram_blocks_once_per_ordered_pair(monkeypatch):
    import grassdist.angles as angles_mod
    calls = counting(monkeypatch, angles_mod, "_gram_blocks")
    pairs = r8_pairs()
    assert verify._check_routes(verify._PairTable(pairs), DEFAULT_TOL).passed
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
    result = verify._check_routes(verify._PairTable(pairs), DEFAULT_TOL)
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
        tri = verify._check_triangle(verify._PairTable(pairs), 1)
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
    tri = verify._check_triangle(verify._PairTable(pairs), 0)
    assert tri.worst == 0.0
    assert tri.detail.endswith("(none)")


@pytest.mark.parametrize("ambient, routes", [(12, "3 routes"), (15, "2 routes")])
def test_route_check_runs_the_exterior_route_up_to_its_cap(ambient, routes):
    # the exterior oracle covers every ambient dimension up to AMBIENT_CAP
    # (14); above it the check compares the other two routes and raises
    pairs = [(f"v{d}", random_subspace(ambient, d, R, d)) for d in (1, 2, 4)]
    result = verify._check_routes(verify._PairTable(pairs), DEFAULT_TOL)
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


def counting_everywhere(monkeypatch, module, name, before=None):
    """Count the calls to ``module.name`` at every grassdist module that
    binds it; each call appends its positional arguments to the returned
    list (keeping them alive, so their ids stay distinct) after
    ``before(*args)`` runs."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        if before is not None:
            before(*args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "grassdist":
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def unordered(calls):
    return [frozenset((id(v), id(w))) for v, w in calls]


def kernel_pairs_and_builds(monkeypatch, pairs):
    """Run ``verify`` on ``pairs`` (None for the corpus), which must pass;
    returns the unordered pair of each kernel call and the number of
    ``Subspace.from_columns`` calls."""
    from grassdist import subspace
    calls = counting_everywhere(monkeypatch, subspace, "principal_angles")
    built = []
    from_columns = subspace.Subspace.from_columns.__func__

    def counted(cls, *args, **kwargs):
        built.append(1)
        return from_columns(cls, *args, **kwargs)

    monkeypatch.setattr(subspace.Subspace, "from_columns", classmethod(counted))
    results = verify.run_verification(pairs, DEFAULT_TOL, 1)
    assert all(r.passed for r in results)
    return unordered(calls), len(built)


def test_verify_takes_the_principal_angles_once_per_unordered_pair(monkeypatch):
    keys, builds = kernel_pairs_and_builds(monkeypatch, r8_pairs())
    assert keys and len(keys) == len(set(keys))
    assert builds == 0


def test_a_corpus_verify_builds_each_subspace_once_and_each_pair_once(monkeypatch):
    spanning_sets = 2 * len(corpus.corpus())
    keys, builds = kernel_pairs_and_builds(monkeypatch, None)
    # the golden check reads the identity checks' pair tables
    assert keys and len(keys) == len(set(keys))
    assert builds == spanning_sets


def test_verify_takes_one_plucker_readout_per_ordered_pair(monkeypatch):
    from grassdist import exterior
    calls = counting_everywhere(monkeypatch, exterior, "plucker_sums")
    pairs = r8_pairs()
    results = verify.run_verification(pairs, DEFAULT_TOL, 1)
    assert all(r.passed for r in results)
    # the sine identity and the exterior route read the same readout
    assert len(calls) == len(pairs) * (len(pairs) - 1)


def test_a_degenerate_pair_fails_every_check_that_reads_it_in_every_call(
        monkeypatch):
    from grassdist import subspace
    from grassdist.errors import NumericalDegeneracyError
    pairs = r8_pairs()
    bad = frozenset((id(pairs[2][1]), id(pairs[5][1])))

    def degenerate(v, w):
        if frozenset((id(v), id(w))) == bad:
            raise NumericalDegeneracyError("SVD did not converge")

    calls = counting_everywhere(monkeypatch, subspace, "principal_angles",
                                degenerate)
    inputs = {id(s) for _, s in pairs}
    read = []
    for _ in range(2):
        calls.clear()
        results = verify.run_verification(pairs, DEFAULT_TOL, 1)
        failed = {r.name for r in results if not r.passed}
        assert failed == {"sine_identity", "route_agreement", "perp_duality",
                          "triangle_inequality"}
        assert all(r.detail.startswith("numerical degeneracy")
                   for r in results if not r.passed)
        # in each call the failed pair is tried again by each check that
        # reads it, and every other pair is taken once
        keys = unordered(calls)
        assert keys.count(bad) == 4
        others = [k for k in keys if k != bad]
        assert len(others) == len(set(others))
        read.append({k for k in keys if k <= inputs})
    # nothing is kept from one call to the next
    assert read[0] == read[1]


def test_pythagorean_identity_names_its_worst_subspace():
    from grassdist.angles import pythagorean_sum
    pairs = r8_pairs()
    result = verify._check_pythagorean(pairs, DEFAULT_TOL)
    m = re.search(r"\((\S+)\)$", result.detail)
    assert m, result.detail
    errors = {vid: abs(pythagorean_sum(v, np.eye(8)) - 1.0) for vid, v in pairs}
    assert errors[m.group(1)] == result.worst == max(errors.values())


def test_sine_identity_names_its_worst_pair():
    from conftest import sine_identity_sides
    pairs = r8_pairs()
    result = verify._check_sine_identity(verify._PairTable(pairs), DEFAULT_TOL)
    m = re.search(r"\((\S+)->(\S+)\)$", result.detail)
    assert m, result.detail
    errors = {}
    for (vid, v), (wid, w) in itertools.permutations(pairs, 2):
        lhs, rhs = sine_identity_sides(v, w)
        errors[vid, wid] = abs(lhs - rhs)
    assert errors[m.groups()] == result.worst == max(errors.values())


def test_perp_duality_names_its_worst_pair():
    from grassdist.angles import asymmetric_angle
    from grassdist.subspace import orthogonal_complement
    pairs = r8_pairs()
    result = verify._check_perp_duality(verify._PairTable(pairs), DEFAULT_TOL)
    m = re.search(r"\((\S+)->(\S+)\)$", result.detail)
    assert m, result.detail
    errors = {}
    for (vid, v), (wid, w) in itertools.permutations(pairs, 2):
        lhs = asymmetric_angle(orthogonal_complement(v), orthogonal_complement(w))
        errors[vid, wid] = abs(lhs - asymmetric_angle(w, v))
    assert errors[m.groups()] == result.worst == max(errors.values())
