from fractions import Fraction as F

import pytest

from adeltors.complexes import ChainComplex, ChainMap
from adeltors.homology import homology
from adeltors.library import random_complex
from adeltors.posets import RangeError
from adeltors.shapes import (CubeDiagram, ShapeMismatchError, Vertex, big_L,
                             build_ifull, build_igeq, build_iminus, cof_direction,
                             face, fib_cof_inverse_check, full_cube,
                             holim_punctured, iminus_count, is_cofibre_layer,
                             punctured_cube, to_dot)
from adeltors.worlds import Z_INT, invert_primes


def hom_exists_formula(u: Vertex, v: Vertex) -> bool:
    """Closed-form reachability in the layer category: A^j reaches B^k
    iff A is contained in B, the filtration climbs through B, and both
    are genuine vertices."""
    if u.dummy or v.dummy:
        return False
    A, j = set(u.label), u.k
    B, k = set(v.label), v.k
    if j > k or not A <= B:
        return (A, j) == (B, k)
    return all(m in B for m in range(j + 1, k + 1))


def reachable(shape, src, dst) -> bool:
    """BFS over categorical arrow directions."""
    edges = {}
    for (s, t, kind) in shape.arrows:
        if kind in ("oplax", "dummy_out"):
            edges.setdefault(s, set()).add(t)
        else:
            edges.setdefault(t, set()).add(s)
    seen, todo = {src}, [src]
    while todo:
        for nxt in edges.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return dst in seen


def test_vertex_counts():
    assert [len(build_iminus(d).vertices) for d in (1, 2, 3)] == [3, 8, 19]
    for d in range(1, 7):
        assert len(build_iminus(d).vertices) == iminus_count(d)


def test_punctured_and_faces():
    assert len(punctured_cube(1).vertices) == 3
    assert len(punctured_cube(2).vertices) == 7
    cube = full_cube(2)
    f = face(cube, 2, True)
    assert len(f.vertices) == 4
    assert all(2 in v.label for v in f.vertices)
    f2 = face(cube, 2, False)
    assert len(f2.vertices) == 4 and all(2 not in v.label for v in f2.vertices)
    with pytest.raises(RangeError):
        face(cube, 5, True)


def test_restrict_filtration_frozen_count():
    g = build_igeq(3, 2)
    assert len(g.plain_vertices()) == 15   # frozen by enumeration


def test_thinness_reachability():
    """Between any two vertices there is at most one morphism: morphism
    existence computed by path search agrees with the closed form, for
    d <= 5."""
    for d in range(1, 6):
        shape = build_iminus(d)
        for u in shape.vertices:
            for v in shape.vertices:
                assert reachable(shape, u.name, v.name) == hom_exists_formula(u, v), \
                    (d, u.name, v.name)


def test_dot_goldens():
    d1 = to_dot(build_iminus(1))
    assert d1.count("[label=") == 3 and '"1^1" -> "10^1" [color="black"]' in d1
    assert '"0^0" -> "10^1" [color="blue"]' in d1
    d2 = to_dot(build_iminus(2))
    assert d2.count("[label=") == 8
    d3 = to_dot(punctured_cube(2))
    assert d3.count("[label=") == 7
    assert to_dot(build_iminus(1)) == to_dot(build_iminus(1))  # deterministic


def test_shapes_are_built_once_per_argument():
    """Each builder hands out one shared shape per argument, equal to a
    fresh build and drawn byte for byte alike; vertex() finds every name
    and refuses an unknown one."""
    for d in (1, 2, 3):
        calls = [(full_cube, (d,)), (punctured_cube, (d,)), (build_iminus, (d,)),
                 (build_ifull, (d,))] + [(build_igeq, (d, i)) for i in range(d + 1)]
        for build, args in calls:
            shape = build(*args)
            assert build(*args) is shape
            fresh = build.__wrapped__(*args)
            assert fresh is not shape and fresh == shape
            for dummies in (False, True):
                assert to_dot(shape, include_dummies=dummies) == \
                    to_dot(fresh, include_dummies=dummies)
            assert all(shape.vertex(v.name) is v for v in shape.vertices)
            with pytest.raises(ShapeMismatchError, match="no vertex"):
                shape.vertex("9^9")


def constant_cube(X, d=1):
    """A full (d+1)-cube with X at every vertex away from the last
    direction and its 2-localization along it."""
    op = lambda w: invert_primes(w, frozenset({2}))
    X2 = X.base_change(op)
    idm = ChainMap.from_unit(X, X)
    u = ChainMap.from_unit(X, X2)
    vals = {"e": X, "0": X, "1": X2, "10": X2}
    maps = {("e", "0"): idm, ("e", "1"): u, ("0", "10"): u,
            ("1", "10"): ChainMap.from_unit(X2, X2)}
    return CubeDiagram(full_cube(1), vals, maps, {}, {})


def test_cof_fib_inverse_random(rng):
    for _ in range(120):
        X = random_complex(rng, Z_INT(), primes=(2, 3), atoms=2, degs=(0, 1))
        D = constant_cube(X)
        assert D.check_commutes()
        for i in (0, 1):
            assert fib_cof_inverse_check(D, i)


def localization_cube(X, primes=(2, 3, 5)):
    """The full cube over {0..d}, d = len(primes) - 1, whose vertex A is
    X with the primes primes[j], j in A, inverted, and whose arrows are
    the localization maps."""
    cube = full_cube(len(primes) - 1)
    vals = {v.name: X.base_change(lambda w, A=v.label: invert_primes(
        w, frozenset(primes[j] for j in A)) if A else w) for v in cube.vertices}
    maps = {(s, t): ChainMap.from_unit(vals[s], vals[t]) for (s, t, _) in cube.arrows}
    return CubeDiagram(cube, vals, maps, {}, {})


def test_cof_fib_inverse_middle_direction(rng):
    """d = 2: each direction, the middle one included, inverts."""
    Z = Z_INT()
    objects = [ChainComplex.unit(Z), ChainComplex.two_term(Z, F(60))]
    objects += [random_complex(rng, Z, primes=(2, 3, 5), atoms=2, degs=(0, 1))
                for _ in range(2)]
    for X in objects:
        D = localization_cube(X)
        assert D.check_commutes()
        for i in (0, 1, 2):
            assert fib_cof_inverse_check(D, i), (X, i)


def test_cof_direction_cone_example():
    Z = Z_INT()
    X = ChainComplex.unit(Z)
    D = constant_cube(X)
    E = cof_direction(D, 1)
    got = homology(E.value("0"))     # cone(Z -> Z[1/2])
    from adeltors.classes import GradedClasses, ModuleClass
    assert got == GradedClasses({0: ModuleClass.quot("pruefer", 2)})
    # cone of the zero map splits
    zm = ChainMap(ChainComplex.unit(Z), ChainComplex.unit(Z), {})
    vals = {"e": ChainComplex.unit(Z), "0": ChainComplex.unit(Z),
            "1": ChainComplex.unit(Z), "10": ChainComplex.unit(Z)}
    idm = ChainMap.from_unit(ChainComplex.unit(Z), ChainComplex.unit(Z))
    maps = {("e", "0"): idm, ("e", "1"): zm, ("0", "10"): zm, ("1", "10"): idm}
    D0 = CubeDiagram(full_cube(1), vals, maps, {}, {})
    E0 = cof_direction(D0, 1)
    assert homology(E0.value("0")) == GradedClasses(
        {0: ModuleClass.free(Z), 1: ModuleClass.free(Z)})


def test_big_L_identity_zero(vcube):
    Z0 = ChainComplex.zero("valrank2")
    pc = punctured_cube(2)
    vals = {v.name: Z0 for v in pc.vertices}
    maps = {(s, t): ChainMap(Z0, Z0, {}) for (s, t, _) in pc.arrows}
    D = CubeDiagram(pc, vals, maps, {}, {})
    TD = big_L(D)
    assert all(TD.value(v.name).is_empty() for v in TD.shape.vertices)
    # d = 2 has the one cofibre layer k = 0, and no other
    assert is_cofibre_layer(TD, 0)
    for k in (-1, 1, 2):
        with pytest.raises(RangeError, match=r"outside 0\.\.0$"):
            is_cofibre_layer(TD, k)


def test_holim_shapes(zcube, zsite):
    # all-zero cube -> zero complex
    Z0 = ChainComplex.zero("zint")
    pc = punctured_cube(1)
    D = CubeDiagram(pc, {v.name: Z0 for v in pc.vertices},
                    {(s, t): ChainMap(Z0, Z0, {}) for (s, t, _) in pc.arrows},
                    {}, {})
    assert holim_punctured(D).is_empty()
