"""Supports, Gamma classes and MGM read off one Smith decomposition.

A single-world complex is decomposed once per Site call, and every
localization and torsion part is read off its atoms.  The reference
below is the per-prime path that builds each L_p X and each Gamma_V X
and reduces it afresh; the atom-based answers must match it exactly,
and the reduction (one _Cells, whether built by decompose_single or by
homology) must run once per complex and per call.
"""

import random
import sys
from fractions import Fraction as F

import pytest

from adeltors.classes import GradedClasses
from adeltors.complexes import ChainComplex
from adeltors.homology import (UnsupportedMixedShape, atom_classes, cone_atom_classes,
                               cross_atom_classes, decompose_single, homology)
from adeltors.library import library, random_complex
from adeltors.localize import MGMReport, Site, SplitReport
from adeltors.posets import SpecClosedSet, down_closure, min_of
from adeltors.ratfunc import x as rx
from adeltors.worlds import VAL, Z_INT, Z_INV, Z_PADIC


# -- the reference: every complex built and reduced on its own ------------------------

def _ref_gamma_classes(site, members, X):
    S = site.inversion_set(members)
    if S is None:
        return homology(X)
    if not members:
        return GradedClasses()
    W = X.single_world()
    if W is None:
        return homology(site.gamma(members, X))
    Wloc = site.localize_op(S)(W)
    if Wloc == W:
        return GradedClasses()
    if Wloc.is_zero_world:
        return homology(X)
    out = GradedClasses()
    for (t, a) in decompose_single(X):
        if a is None:
            ker, coker = cross_atom_classes(W, Wloc, W.el_one())
            out = out + GradedClasses({t: ker, t - 1: coker})
        else:
            mid, bot = cone_atom_classes(W, Wloc, a)
            out = out + GradedClasses({t - 1: mid, t - 2: bot})
    return out


def _ref_support(site, X):
    return frozenset(p for p in site.poset.elements
                     if not _ref_gamma_classes(site, site.poset.down(p),
                                               site.l_at(p, X)).is_zero())


def _ref_split_gamma(site, V, X):
    members = site.region(V)
    top = SpecClosedSet(site.poset, members).max_elements()
    hyp = (_ref_support(site, X) & members) <= top
    lhs = GradedClasses()
    for p in site.poset.canonical_order(top):
        lhs = lhs + _ref_gamma_classes(site, site.poset.down(p), X)
    return SplitReport("gamma-splitting", hyp, lhs, _ref_gamma_classes(site, members, X))


def _ref_split_l(site, V, X):
    members = site.region(V)
    comp = frozenset(site.poset.elements) - members
    mins = min_of(site.poset, comp)
    hyp = (_ref_support(site, X) & comp) <= mins
    rhs = ChainComplex.zero(site.backend)
    for p in site.poset.canonical_order(mins):
        rhs = rhs.dsum(site.l_at(p, X))
    return SplitReport("l-splitting", hyp, homology(site.l_complement(members, X)),
                       homology(rhs))


def _ref_mgm(site, V, X):
    members = site.region(V)
    LamX = site.lam(members, X)
    LamGX = site.lam(members, site.gamma(members, X))
    return MGMReport(homology(LamGX), homology(LamX), _ref_gamma_classes(site, members, X),
                     _ref_gamma_classes(site, members, LamX))


def _outcome(f, *args):
    """f's answer (a report as its JSON), or the refusal."""
    try:
        got = f(*args)
    except UnsupportedMixedShape as err:
        return ("refused", str(err))
    return got.to_json() if hasattr(got, "to_json") else got


# -- inputs ---------------------------------------------------------------------------------

SITES = [("zint", (2, 3, 5)), ("zint", (2, 3)), ("valrank2", ())]


def _inputs(site, rng, per_atoms):
    """The library objects, random single-world complexes with 1-4 atoms,
    completions of some of them (single-world over a complete world), and
    mixed sums of some of them with a localization of themselves."""
    objs = [X for _, X in library(site)]
    for atoms in (1, 2, 3, 4):
        objs += [random_complex(rng, site.base, primes=site.T or (2, 3), atoms=atoms)
                 for _ in range(per_atoms)]
    closed = _closed(site)
    last = objs[-per_atoms:]
    objs += [site.lam(site.poset.down(rng.choice(closed)), X) for X in last]
    objs += [X.dsum(site.l_at(rng.choice(closed), X).shift(rng.choice([0, 1]))) for X in last]
    return objs


def _closed(site):
    return [p for p in sorted(site.poset.elements) if site.poset.dim[p] < site.poset.dimension]


def _region(site, rng):
    elements = sorted(site.poset.elements)
    return down_closure(site.poset, rng.sample(elements, rng.randint(1, len(elements)))).members


@pytest.mark.parametrize("backend,T", SITES)
def test_atom_support_matches_the_per_prime_loop(backend, T):
    site = Site(backend, T=T or (2, 3))
    rng = random.Random(f"support-{backend}-{T}")
    objs = _inputs(site, rng, 40)
    assert sum(X.single_world() is None and not X.is_empty() for X in objs) >= 10
    for X in objs:
        assert _outcome(site.support, X) == _outcome(_ref_support, site, X)


@pytest.mark.parametrize("backend,T", SITES)
def test_splittings_and_mgm_reports_unchanged(backend, T):
    site = Site(backend, T=T or (2, 3))
    rng = random.Random(f"reports-{backend}-{T}")
    closed = _closed(site)
    for X in _inputs(site, rng, 20):
        V = _region(site, rng)
        assert _outcome(site.split_gamma, V, X, True) == _outcome(_ref_split_gamma, site, V, X)
        assert _outcome(site.split_l, V, X, True) == _outcome(_ref_split_l, site, V, X)
        for W in (site.poset.down(rng.choice(closed)), frozenset(site.poset.elements)):
            assert _outcome(site.mgm_check, W, X) == _outcome(_ref_mgm, site, W, X)


# -- one decomposition per complex and per call -----------------------------------------------

@pytest.fixture
def decompositions(monkeypatch):
    """Every complex the package reduces: the argument of each _Cells
    construction (decompose_single and homology both build one)."""
    seen = []
    module = sys.modules["adeltors.homology"]    # the package attribute is the function

    class Counted(module._Cells):
        def __init__(self, C):
            seen.append(C)
            super().__init__(C)
    monkeypatch.setattr(module, "_Cells", Counted)
    return seen


def _calls_on(seen, C):
    return sum(1 for arg in seen if arg is C)


def _single_world_objects(site, rng, n=12):
    return [random_complex(rng, site.base, primes=site.T or (2, 3), atoms=3) for _ in range(n)]


@pytest.mark.parametrize("backend", ["zint", "valrank2"])
def test_split_gamma_decomposes_once(backend, decompositions):
    site = Site(backend, T=(2, 3, 5))
    rng = random.Random(31)
    for X in _single_world_objects(site, rng):
        decompositions.clear()
        site.split_gamma(_region(site, rng), X, force=True)
        assert len(decompositions) == 1 and decompositions[0] is X


@pytest.mark.parametrize("backend", ["zint", "valrank2"])
def test_mgm_check_decomposes_x_and_its_completion_once(backend, decompositions, monkeypatch):
    site = Site(backend, T=(2, 3, 5))
    built = []
    lam = Site.lam

    def recorded(self, V, X):
        built.append(lam(self, V, X))
        return built[-1]
    monkeypatch.setattr(Site, "lam", recorded)
    rng = random.Random(32)
    for X in _single_world_objects(site, rng):
        p = rng.choice(_closed(site))
        decompositions.clear()
        built.clear()
        site.mgm_check(site.poset.down(p), X)
        LamX, LamGX = built
        assert _calls_on(decompositions, X) == 1
        assert _calls_on(decompositions, LamX) == 1
        assert _calls_on(decompositions, LamGX) <= 1
        assert len(decompositions) == len({id(C) for C in decompositions})


@pytest.mark.parametrize("backend", ["zint", "valrank2"])
def test_mgm_check_on_the_whole_poset_decomposes_x_once(backend, decompositions):
    """There Gamma_V, Lambda_V and Lambda_V Gamma_V all hand back X."""
    site = Site(backend, T=(2, 3, 5))
    for X in _single_world_objects(site, random.Random(34)):
        decompositions.clear()
        site.mgm_check(frozenset(site.poset.elements), X)
        assert len(decompositions) == 1 and decompositions[0] is X


def test_nothing_outlives_a_call(zsite5, decompositions):
    """Two calls on the same complex decompose it twice: no cache."""
    X = random_complex(random.Random(33), zsite5.base, primes=zsite5.T, atoms=3)
    V = zsite5.poset.down("(2)")
    zsite5.split_gamma(V, X, force=True)
    zsite5.split_gamma(V, X, force=True)
    assert _calls_on(decompositions, X) == 2


def test_atom_rule_is_read_once_per_fold(monkeypatch):
    """atom_classes resolves the rule of W -> Wloc at its first atom and
    reads it for every later one: the classes are the per-atom ones, an
    empty fold refuses nothing, and a refusal says what the per-atom rule
    says for the first atom."""
    module = sys.modules["adeltors.homology"]    # the package attribute is the function
    resolved, rule = [], module._atom_rule
    monkeypatch.setattr(module, "_atom_rule",
                        lambda w1, w2: resolved.append((w1, w2)) or rule(w1, w2))
    Z, V, Vhat = Z_INT(), VAL("V"), VAL("VhatP")
    atoms = [(0, None), (1, F(12)), (2, F(18)), (2, None)]
    want = GradedClasses()
    for t, a in atoms:
        pieces = cross_atom_classes(Z, Z_INV(2), 1) if a is None else \
            cone_atom_classes(Z, Z_INV(2), a)
        want = want + GradedClasses(dict(zip((t, t - 1) if a is None else (t - 1, t - 2),
                                             pieces)))
    resolved.clear()
    assert atom_classes(Z, atoms, Z_INV(2)) == want and len(resolved) == 1
    for w, wloc, first in ((Z, Z_PADIC(2), (1, F(4))), (V, Vhat, (0, None)),
                           (V, Vhat, (1, rx()))):
        resolved.clear()
        assert atom_classes(w, [], wloc) == GradedClasses() and resolved == []
        t, a = first
        with pytest.raises(UnsupportedMixedShape) as per_atom:
            cross_atom_classes(w, wloc, w.el_one()) if a is None else cone_atom_classes(w, wloc, a)
        with pytest.raises(UnsupportedMixedShape) as folded:
            atom_classes(w, [first, (0, None), (2, a or w.el_one())], wloc)
        assert str(folded.value) == str(per_atom.value)
