"""The benchmark's workloads.

Each workload builds one round of cases during set-up; a case is one
input on one backend, and running it returns ``"verdict"`` or
``"refused"`` or raises ``WrongVerdict``.  The runner repeats the round
in an order drawn from the run's seed (see run.py), so that every input
is timed several times, apart.

Every call into the package goes through the module object at call
time (``_m("shapes").big_L``), so an installed tracer sees it.

The inputs are fixed: the library objects, and ``library.random_complex``
objects (with, in ``suites``, their regions and directions) drawn from
a fixed stream (``SHAPE_SEED``).  The seed orders the rounds and does
not change the inputs.  Only a few dozen random objects fit in a run
that also times each of them several times, and drawing them per seed
(or re-basing them per seed) left a seed-to-seed spread of 0.12-0.20 in
the latency percentiles of ``random`` even with the host's drift
cancelled, which is most of the largest bound allowed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import sys

SHAPE_SEED = 20260801
# Input pairs (a zint and a valrank2 object) per second of --seconds, so
# that a run holds four to eight rounds over them on a 2-core x86 host
# (Python 3.11) whichever speed it runs at (see speed.py).
RANDOM_PAIRS_PER_S = 0.38
SUITES_PAIRS_PER_S = 1.0
# Each round of `random` times its cheap zint inputs this many times.
RANDOM_ZINT_REPEATS = 3

HERE = os.path.dirname(os.path.abspath(__file__))


class WrongVerdict(AssertionError):
    pass


def _m(name: str):
    return sys.modules["adeltors." + name]


def load_package():
    """Import adeltors and the modules the workloads use from ./src; an
    installed copy elsewhere is refused, so that the checkout is what
    gets measured."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    for name in ("adeltors", "adeltors.library", "adeltors.oracle"):
        importlib.import_module(name)
    found = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["adeltors"].__file__)))
    if found != os.path.abspath(src):
        raise ImportError(f"adeltors imported from {found}, not from {src}")


class Case:
    __slots__ = ("backend", "ident", "run")

    def __init__(self, backend: str, ident: str, run):
        self.backend, self.ident, self.run = backend, ident, run


def order_round(cases: list, rng: random.Random) -> list:
    """One round of the cases in a seeded order, each backend's cases
    spread evenly through it, so that the host's speed drifting over
    seconds hits both backends alike."""
    streams: dict[str, list] = {}
    for case in cases:
        streams.setdefault(case.backend, []).append(case)
    keyed = []
    for stream in streams.values():
        keyed += [((k + 0.5) / len(stream), c) for k, c in enumerate(rng.sample(stream, len(stream)))]
    return [c for _, c in sorted(keyed, key=lambda kc: kc[0])]


def _cube(backend: str):
    """The default site (zint over T=(2,3)) and its adelic cube."""
    site = _m("localize").Site(backend)
    return site, _m("adelic").AdelicCube(site)


def _shape_stream(backend: str, what: str) -> random.Random:
    return random.Random(f"{SHAPE_SEED}-{backend}-{what}")


def _shaped(backend: str, world, n: int, **kw) -> list:
    """The first n random_complex objects of a fixed stream."""
    shapes = _shape_stream(backend, repr(sorted(kw.items())))
    return [_m("library").random_complex(shapes, world, **kw) for _ in range(n)]


# -- the round trip shared by `library` and `random` ----------------------------

def round_trip(site, cube, X, oracle: bool):
    """tensor, big_L, validate, big_R, holim, homology, fracture limit and
    adelic membership; the decided classes of X, or None when refused."""
    try:
        D = cube.tensor(X)
        TD = _m("shapes").big_L(D)
        rep = _m("torsion").reconstruct(site, TD, X, cube)
        if not (rep.validation.ok and rep.agree):
            raise WrongVerdict("torsion round trip disagrees or fails membership")
        fr = _m("adelic").reconstruct_limit(D, X)
        if not fr.agree:
            raise WrongVerdict("fracture limit disagrees")
        if not _m("adelic").is_adelic_object(D, cube):
            raise WrongVerdict("tensor diagram is not adelic")
    except _m("homology").UnsupportedMixedShape:
        return None
    if oracle:
        _m("oracle").oracle_check(X, rep.want)
    return rep.want


def _expected_library() -> dict:
    with open(os.path.join(HERE, "expected_library.json")) as fh:
        return json.load(fh)


def build_library(seconds: float):
    """One pass over the library objects of both backends; every answer
    is compared with the reviewed classes in expected_library.json."""
    expected = _expected_library()
    lib = _m("library")
    per_backend = {}
    for backend in ("zint", "valrank2"):
        site, cube = _cube(backend)
        objs = lib.library(site)
        per_backend[backend] = (site, cube, objs)

    def make(backend, name, X):
        site, cube, _ = per_backend[backend]
        want = expected[backend][name]

        def run():
            got = round_trip(site, cube, X, oracle=False)
            if got is None:
                return "refused"
            if got.to_json() != want:
                raise WrongVerdict(f"{backend} {name}: {got.to_json()} != {want}")
            return "verdict"
        return Case(backend, f"{backend}:{name}", run)

    cases = [make(backend, n, X) for backend, (_, _, objs) in per_backend.items()
             for n, X in objs]

    def cross_check():
        """Each reviewed entry once against the residue oracle."""
        for backend, (_, _, objs) in per_backend.items():
            for name, X in objs:
                H = _m("homology").homology(X)
                if H.to_json() != expected[backend][name]:
                    raise WrongVerdict(f"{backend} {name}: reviewed classes differ")
                _m("oracle").oracle_check(X, H)
    inputs = [X for _, _, objs in per_backend.values() for _, X in objs]
    return cases, inputs, cross_check


def build_random(seconds: float):
    """random_complex objects with 1-4 atoms on both backends; every
    decided answer then passes the residue oracle."""
    n = max(1, math.ceil(seconds * RANDOM_PAIRS_PER_S))
    cases, inputs = [], []
    for backend in ("zint", "valrank2"):
        site, cube = _cube(backend)
        objs = _shaped(backend, site.base, n, primes=(2, 3), atoms=4)
        inputs.extend(objs)

        def make(i, X, site=site, cube=cube):
            return Case(site.backend, f"{site.backend}:{i}",
                        lambda: "refused" if round_trip(site, cube, X, oracle=True) is None
                        else "verdict")
        repeats = RANDOM_ZINT_REPEATS if backend == "zint" else 1
        cases += [make(i, X) for i, X in enumerate(objs)] * repeats
    return cases, inputs, None


def build_suites(seconds: float):
    """Criterion 5-7 style cases: one complex through mgm_check,
    split_gamma and split_l, then the cofibre/fibre inversion of the
    unit square of a 2-atom complex.  zint runs over T=(2,3,5) as in the
    acceptance suites; valrank2 runs the same case kinds on its chain."""
    n = max(1, math.ceil(seconds * SUITES_PAIRS_PER_S))
    cases, inputs = [], []
    loc, posets = _m("localize"), _m("posets")
    for backend in ("zint", "valrank2"):
        site = loc.Site(backend, T=(2, 3, 5))
        objs = _shaped(backend, site.base, n, primes=(2, 3, 5))
        pairs = _shaped(backend, site.base, n, primes=(2, 3), atoms=2, degs=(0, 1))
        elements = sorted(site.poset.elements)
        regions = _shape_stream(backend, "regions")
        for i, (X, X2) in enumerate(zip(objs, pairs)):
            inputs.extend((X, X2))
            p = f"({regions.choice(site.T)})" if backend == "zint" else regions.choice(elements)
            pick = regions.sample(elements, regions.randint(1, len(elements)))
            V = posets.down_closure(site.poset, pick).members
            direction = regions.choice([0, 1])
            ident = f"{backend}:{i}"
            cases.append(Case(backend, ident, _suite_case(site, X, p, V, X2, direction, ident)))
    return cases, inputs, None


def _suite_case(site, X, p, V, X2, direction, ident):
    loc, shapes, cx, worlds = _m("localize"), _m("shapes"), _m("complexes"), _m("worlds")
    if site.backend == "zint":
        def invert(w):
            return worlds.invert_primes(w, frozenset({2}))
    else:
        def invert(w):
            return worlds.invert_val(w, frozenset({"x"}))

    def run():
        try:
            if not site.mgm_check(site.poset.down(p), X).agree:
                raise WrongVerdict(f"{ident}: torsion/completion equivalence fails")
            for split in (site.split_gamma, site.split_l):
                try:
                    if not split(V, X).agree:
                        raise WrongVerdict(f"{ident}: splitting disagrees")
                except loc.HypothesisFailed:
                    pass
            Y = X2.base_change(invert)
            u = cx.ChainMap.from_unit(X2, Y)
            D = shapes.CubeDiagram(
                shapes.full_cube(1), {"e": X2, "0": X2, "1": Y, "10": Y},
                {("e", "0"): cx.ChainMap.from_unit(X2, X2), ("e", "1"): u,
                 ("0", "10"): u, ("1", "10"): cx.ChainMap.from_unit(Y, Y)}, {}, {})
            if not shapes.fib_cof_inverse_check(D, direction):
                raise WrongVerdict(f"{ident}: cofibre/fibre inversion fails")
        except _m("homology").UnsupportedMixedShape:
            return "refused"
        return "verdict"
    return run


WORKLOADS = {"library": build_library, "random": build_random, "suites": build_suites}


def fingerprint(inputs) -> str:
    """Hash of the generated complexes: worlds, ranks and every entry."""
    h = hashlib.sha256()
    for X in inputs:
        strands = [(n, [(w.name, r) for w, r in X.strand_list(n)]) for n in X.degrees()]
        blocks = sorted((k, [[repr(e) for e in row] for row in M]) for k, M in X.blocks.items())
        h.update(repr((X.backend, strands, blocks)).encode())
    return h.hexdigest()[:16]
