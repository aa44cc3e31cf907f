from fractions import Fraction as F

import pytest

from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex, ChainMap, cone
from adeltors.homology import homology, is_acyclic
from adeltors.library import random_complex
from adeltors.localize import HypothesisFailed
from adeltors.oracle import oracle_check
from adeltors.ratfunc import x as rx, y as ry
from adeltors.worlds import VAL, Z_PADIC, Z_RAT


def p_primary_oracle(n, p):
    """Independent p-primary part of Z/n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def test_koszul_table(zsite, vsite):
    K3 = zsite.koszul("(3)")
    assert homology(K3) == GradedClasses({0: ModuleClass.cyclic(zsite.base, F(3))})
    assert zsite.support(K3) == {"(3)"}
    assert zsite.koszul("g") == zsite.unit()
    Km, Kp = vsite.koszul("m"), vsite.koszul("p")
    assert vsite.support(Km) == {"m"}
    assert vsite.support(Kp) == {"m", "p"}          # the down closure of p
    with pytest.raises(Exception):
        zsite.koszul("(7)")


def test_gamma_examples(zsite):
    Z12 = ChainComplex.two_term(zsite.base, F(12))
    g = zsite.gamma_at("(2)", Z12)
    want = ModuleClass.cyclic(zsite.base, F(p_primary_oracle(12, 2)))
    assert homology(g) == GradedClasses({0: want})
    assert is_acyclic(zsite.l_at("g", Z12))
    lam = zsite.lam(zsite.poset.down("(2)"), zsite.unit())
    assert homology(lam) == GradedClasses({0: ModuleClass.free(Z_PADIC(2))})
    oracle_check(lam, homology(lam))


def test_triangles_exact(zsite, rng):
    """Gamma -> id -> L and Delta -> id -> Lambda are exact: the cone of
    the first map recovers the third term in homology."""
    for _ in range(25):
        X = random_complex(rng, zsite.base, primes=(2, 3))
        V = zsite.poset.down("(2)")
        GX = zsite.gamma(V, X)
        LX = zsite.l_complement(V, X)
        u = _first_map_of_fib(zsite, V, X)
        assert homology(cone(u)) == homology(LX)


def _first_map_of_fib(site, V, X):
    S = site.inversion_set(V)
    LX, unit = site.localized(X, S)
    from adeltors.complexes import fib, fib_projection
    # Gamma X = fib(unit); the triangle map is the fibre projection
    return ChainMap(fib(unit), X, fib_projection(unit).blocks, check=False)


def test_delta_square(zsite):
    """The completion square X -> L X, Lambda X -> L Lambda X has acyclic
    total complex (its fibres are Delta and Gamma)."""
    X = zsite.unit()
    V = zsite.poset.down("(2)")
    LX = zsite.l_complement(V, X)
    LamX, unit = zsite.completed(X, zsite.completion_targets(V))
    LLamX = zsite.l_complement(V, LamX)
    # assemble the square total by hand: X -> LX (+) LamX -> LLamX
    from adeltors.worlds import Z_INV, Z_PADICRAT
    strands = {0: [(zsite.base, 1)],
               -1: [(Z_INV(2), 1), (Z_PADIC(2), 1)],
               -2: [(Z_PADICRAT(2), 1)]}
    one = F(1)
    blocks = {(0, 0, 0): [[one]], (0, 0, 1): [[one]],
              (-1, 0, 0): [[one]], (-1, 1, 0): [[-one]]}
    total = ChainComplex("zint", strands, blocks)
    assert is_acyclic(total)
    # delta on a rationally supported object is the object itself
    Q = ChainComplex.unit(Z_RAT())
    assert homology(zsite.delta(V, Q)) == homology(Q)


def test_gamma_region(zsite):
    X = ChainComplex.two_term(zsite.base, F(6))
    assert homology(zsite.gamma(frozenset({"(2)"}), X)) == \
        GradedClasses({0: ModuleClass.cyclic(zsite.base, F(2))})
    from adeltors.posets import NotSpecClosedError
    with pytest.raises(NotSpecClosedError):
        zsite.gamma(frozenset({"g"}), X)


def test_support_examples(zsite, vsite):
    Z12 = ChainComplex.two_term(zsite.base, F(12))
    assert sorted(zsite.support(Z12)) == ["(2)", "(3)"]
    assert zsite.support(ChainComplex.unit(Z_RAT())) == {"g"}
    Vx = ChainComplex.two_term(vsite.base, rx())
    assert vsite.support(Vx) == {"m"}
    Vy = ChainComplex.two_term(vsite.base, ry())
    assert vsite.support(Vy) == {"m", "p"}
    # detection: zero homology iff empty support, over the library
    from adeltors.library import library
    from adeltors.homology import is_acyclic
    assert zsite.support(ChainComplex.zero("zint")) == frozenset()
    for site in (zsite, vsite):
        for name, obj in library(site):
            assert is_acyclic(obj) == (site.support(obj) == frozenset()), name


def test_splittings(zsite):
    Z6 = ChainComplex.two_term(zsite.base, F(6))
    rep = zsite.split_gamma({"(2)", "(3)"}, Z6)
    assert rep.agree and rep.hypothesis
    # CRT oracle: the two sides are Cyclic(2) + Cyclic(3) = Cyclic(6)
    assert rep.lhs == GradedClasses({0: ModuleClass.cyclic(zsite.base, F(6))})
    with pytest.raises(HypothesisFailed):
        zsite.split_gamma(frozenset(zsite.poset.elements), Z6)
    forced = zsite.split_gamma(frozenset(zsite.poset.elements), Z6, force=True)
    assert not forced.hypothesis
    # split of L over the fan: rational part collapses to the generic point
    X = ChainComplex.unit(Z_RAT()).dsum(ChainComplex.two_term(zsite.base, F(2)))
    rep = zsite.split_l({"(2)", "(3)"}, X)
    assert rep.agree
    with pytest.raises(HypothesisFailed):
        zsite.split_l({"(2)"}, X)


def test_gamma_products(zsite):
    fam = [ChainComplex.two_term(zsite.base, F(4)),
           ChainComplex.two_term(zsite.base, F(6)),
           ChainComplex.unit(Z_RAT())]
    rep = zsite.gamma_product({"(2)"}, fam)
    assert rep.agree


def test_e_objects(zsite):
    e0 = zsite.e_object(0)
    assert homology(e0) == GradedClasses({-1: ModuleClass.quot("pruefer", 2)
                                          + ModuleClass.quot("pruefer", 3)})
    e1 = zsite.e_object(1)
    assert homology(e1).degrees() == [0]
    rep = zsite.epointy_check(0, ChainComplex.two_term(zsite.base, F(4)))
    assert rep.agree


def test_mgm_examples(zsite):
    V = zsite.poset.down("(2)")
    for X, lam0, gam0 in [
            (zsite.unit(), ModuleClass.free(Z_PADIC(2)), None),
            (ChainComplex.unit(Z_RAT()), None, None),
            (ChainComplex.two_term(zsite.base, F(8)),
             ModuleClass.cyclic(zsite.base, F(8)),
             ModuleClass.cyclic(zsite.base, F(8)))]:
        rep = zsite.mgm_check(V, X)
        assert rep.agree
        if lam0 is not None:
            assert rep.lam[0] == lam0


def test_mgm_randomized(zsite5, rng):
    for _ in range(60):
        X = random_complex(rng, zsite5.base, primes=zsite5.T)
        p = f"({rng.choice(zsite5.T)})"
        assert zsite5.mgm_check(zsite5.poset.down(p), X).agree


def test_idempotence_and_smashing(zsite):
    V = zsite.poset.down("(2)")
    for X in [ChainComplex.two_term(zsite.base, F(12)), zsite.unit()]:
        GX = zsite.gamma(V, X)
        assert homology(zsite.gamma(V, GX)) == homology(GX)
        LX = zsite.l_complement(V, X)
        assert homology(zsite.l_complement(V, LX)) == homology(LX)
        # smashing: L(X) = X (x) L(1)
        L1 = zsite.l_complement(V, zsite.unit())
        assert homology(L1.tensor(X)) == homology(LX)


def test_tensor_support_containment(zsite, rng):
    for _ in range(20):
        X = random_complex(rng, zsite.base, primes=(2, 3), atoms=2, degs=(0, 1))
        Y = random_complex(rng, zsite.base, primes=(2, 3), atoms=2, degs=(0, 1))
        sX, sY = zsite.support(X), zsite.support(Y)
        sT = zsite.support(X.tensor(Y))
        assert sT <= (sX & sY)


def test_valrank2_functors(vsite):
    V = vsite.base
    lam_m = vsite.lam({"m"}, vsite.unit())
    assert homology(lam_m) == GradedClasses({0: ModuleClass.free(VAL("VhatM"))})
    lam_p = vsite.lam({"m", "p"}, vsite.unit())
    assert homology(lam_p) == GradedClasses({0: ModuleClass.free(VAL("VhatPFull"))})
    g = vsite.gamma({"m"}, ChainComplex.two_term(V, ry()))
    assert homology(g) == GradedClasses({0: ModuleClass.quot("prueferX"),
                                         -1: ModuleClass.quot("prueferX")})
    rep = vsite.mgm_check({"m"}, vsite.unit())
    assert rep.agree
