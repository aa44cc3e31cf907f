from fractions import Fraction as F

import pytest

from adeltors.complexes import (ChainComplex, ChainMap, DegreeWindowError,
                                IncompatibleWorldsError, NotChainMapError,
                                ShapeError, _check_blocks, _kron, cone, cone_inclusion,
                                cone_null_homotopy, compose, homotopy_defect, map_equal,
                                merge_strands)
from adeltors.homology import homology
from adeltors.ratfunc import RatXY, x as rx, y as ry
from adeltors.worlds import (VAL, Z_INT, Z_INV, Z_LOC, Z_PADIC, Z_PADICRAT, Z_RAT,
                             Z_SEMILOC, invert_primes, mult_map_allowed)


def tor_oracle(m, n):
    """Classical Tor of Z/m (x) Z/n by an explicit 2x2 Smith form, kept
    independent of the tensor construction."""
    import math
    g = math.gcd(m, n)
    return g


def test_tensor_tor_example():
    Z = Z_INT()
    T = ChainComplex.two_term(Z, F(4)).tensor(ChainComplex.two_term(Z, F(6)))
    h = homology(T)
    g = tor_oracle(4, 6)
    from adeltors.classes import GradedClasses, ModuleClass
    assert h == GradedClasses({0: ModuleClass.cyclic(Z, F(g)),
                               1: ModuleClass.cyclic(Z, F(g))})


def test_tensor_merges_the_strands_of_its_right_factor():
    # the right factor's differential was read from its first strand per
    # degree alone, which raised ShapeError here
    Z = Z_INT()
    A, B = ChainComplex.two_term(Z, F(4)), ChainComplex.two_term(Z, F(6))
    T = A.tensor(B.dsum(B))
    assert T == A.tensor(merge_strands(B.dsum(B)))
    from adeltors.classes import GradedClasses, ModuleClass
    two = ModuleClass.cyclic(Z, F(2))
    assert homology(T) == GradedClasses({0: two + two, 1: two + two})


def test_kron_matches_dense(rng):
    for _ in range(100):
        ra, ca, rb, cb = (rng.randint(0, 3) for _ in range(4))
        A = [[F(rng.choice([0, 0, 1, -1, 3])) for _ in range(ca)] for _ in range(ra)]
        B = [[F(rng.choice([0, 0, 1, -2])) for _ in range(cb)] for _ in range(rb)]
        dense = [[A[i][j] * B[k][l] for j in range(ca) for l in range(cb)]
                 for i in range(ra) for k in range(rb)]
        assert _kron(A, B, F(0)) == dense


def test_shift_round_trip():
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(4))
    assert C.shift(3).shift(-3) == C
    assert C.shift(1) != C


def test_cone_of_zero_splits():
    Z = Z_INT()
    zm = ChainMap(ChainComplex.unit(Z), ChainComplex.unit(Z), {})
    c = cone(zm)
    h = homology(c)
    from adeltors.classes import GradedClasses, ModuleClass
    assert h == GradedClasses({0: ModuleClass.free(Z), 1: ModuleClass.free(Z)})


def test_d_squared_enforced():
    Z = Z_INT()
    with pytest.raises(ShapeError):
        ChainComplex(Z.backend, {2: [(Z, 1)], 1: [(Z, 1)], 0: [(Z, 1)]},
                     {(2, 0, 0): [[F(1)]], (1, 0, 0): [[F(1)]]})


def test_chain_map_checked():
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(2))
    D = ChainComplex.two_term(Z, F(3))
    with pytest.raises(NotChainMapError):
        ChainMap(C, D, {(1, 0, 0): [[F(1)]], (0, 0, 0): [[F(1)]]})


def test_degree_window():
    Z = Z_INT()
    with pytest.raises(DegreeWindowError):
        ChainComplex.single(Z, {9: 1})
    C = ChainComplex.single(Z, {8: 1})
    with pytest.raises(DegreeWindowError):
        C.shift(1)


def test_base_change_respects_worlds():
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(6))
    D = C.base_change(lambda w: invert_primes(w, frozenset({2})))
    assert D.single_world() == Z_INV(2)
    # homology invariance under an isomorphism-like base change needs the
    # same world; a genuine localization changes classes by design
    from adeltors.classes import ModuleClass
    assert homology(D)[0] == ModuleClass.cyclic(Z_INV(2), F(6))


def test_tensor_needs_compatible_worlds():
    V = VAL("V")
    C = ChainComplex.unit(VAL("VhatM"))
    with pytest.raises(IncompatibleWorldsError):
        ChainComplex.unit(V).tensor(C)  # no canonical map VhatM -> V


def test_compose_and_equality():
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(4))
    idm = ChainMap.from_unit(C, C)
    assert map_equal(compose(idm, idm), idm)


def test_equality_with_itself_reads_no_block():
    Z = Z_INT()
    C, copy = ChainComplex.two_term(Z, F(4)), ChainComplex.two_term(Z, F(4))
    f = ChainMap.from_unit(C, C)

    class Uncomparable(dict):
        def __eq__(self, other):
            raise RuntimeError("blocks compared")
        __hash__ = None
    C.blocks = Uncomparable(C.blocks)
    assert C == C and not (C != C)
    assert map_equal(f, f)
    with pytest.raises(RuntimeError):
        C == copy


def test_mixed_validity():
    from adeltors.worlds import Z_PADIC
    with pytest.raises(IncompatibleWorldsError):
        ChainComplex("zint", {0: [(Z_PADIC(2), 1)], -1: [(Z_PADIC(3), 1)]},
                     {(0, 0, 0): [[F(1)]]})
    # a twisted multiplication map inside the y-family is accepted
    ChainComplex("valrank2", {0: [(VAL("VhatP"), 1)], -1: [(VAL("VhatPFull"), 1)]},
                 {(0, 0, 0): [[ry()]]})
    with pytest.raises(IncompatibleWorldsError):
        ChainComplex("valrank2", {0: [(VAL("VhatP"), 1)], -1: [(VAL("VhatPFull"), 1)]},
                     {(0, 0, 0): [[rx()]]})


def _double_first_entry(h):
    """A copy of the homotopy blocks h with its first nonzero entry doubled."""
    out = {k: [list(row) for row in M] for k, M in h.items()}
    for M in out.values():
        for row in M:
            for b, e in enumerate(row):
                if e != 0:
                    row[b] = e + e
                    return out


@pytest.mark.parametrize("backend", ["zint", "valrank2"])
def test_homotopy_defect_on_cube_structure_maps(backend, zsite, zcube, vsite, vcube):
    from adeltors.library import library
    site, cube = (zsite, zcube) if backend == "zint" else (vsite, vcube)
    broken = 0
    for _, X in library(site):
        for f in cube.tensor(X).maps.values():
            incl, h = cone_inclusion(f), cone_null_homotopy(f)
            assert homotopy_defect(f, incl, h)
            # into a zero target (f has no blocks) every homotopy works
            if f.blocks:
                assert not homotopy_defect(f, incl, _double_first_entry(h))
                broken += 1
    assert broken


def test_d_squared_across_worlds():
    Z, Z2 = Z_INT(), Z_INV(2)
    strands = {2: [(Z, 1)], 1: [(Z, 1), (Z2, 1)], 0: [(Z2, 1)]}
    d2 = {(2, 0, 0): [[F(1)]], (2, 0, 1): [[F(1)]], (1, 0, 0): [[F(1)]]}
    ChainComplex("zint", strands, {**d2, (1, 1, 0): [[F(-1)]]})
    with pytest.raises(ShapeError):
        ChainComplex("zint", strands, {**d2, (1, 1, 0): [[F(1)]]})
    # y goes to 0 along V -> VhatM, so V --y--> V --1--> VhatM is a complex
    V, VM = VAL("V"), VAL("VhatM")
    one = V.el_one()
    vstrands = {2: [(V, 1)], 1: [(V, 1)], 0: [(VM, 1)]}
    ChainComplex("valrank2", vstrands, {(2, 0, 0): [[ry()]], (1, 0, 0): [[one]]})
    with pytest.raises(ShapeError):
        ChainComplex("valrank2", vstrands, {(2, 0, 0): [[rx()]], (1, 0, 0): [[one]]})


def test_chain_map_across_canonical_maps():
    Z, Z2 = Z_INT(), Z_INV(2)
    C = ChainComplex.two_term(Z, F(2))
    D = ChainComplex("zint", {1: [(Z, 1)], 0: [(Z2, 1)]}, {(1, 0, 0): [[F(1)]]})
    ChainMap(C, D, {(1, 0, 0): [[F(1)]], (0, 0, 0): [[F(1, 2)]]})
    with pytest.raises(NotChainMapError):
        ChainMap(C, D, {(1, 0, 0): [[F(1)]], (0, 0, 0): [[F(1)]]})
    V, VM = VAL("V"), VAL("VhatM")
    one = V.el_one()
    DM = ChainComplex.single(VM, {1: 1, 0: 1})
    blocks = {(1, 0, 0): [[one]], (0, 0, 0): [[one]]}
    ChainMap(ChainComplex.two_term(V, ry()), DM, blocks)
    with pytest.raises(NotChainMapError):
        ChainMap(ChainComplex.two_term(V, rx()), DM, blocks)


def test_chain_map_blocks_checked():
    Z = Z_INT()
    X = ChainComplex.single(Z, {0: 1})
    with pytest.raises(ShapeError):
        ChainMap(X, X, {(0, 0, 0): [[F(1)], [F(5)]]})
    for key in [(0, 1, 0), (0, 0, 1), (1, 0, 0), (0, -1, 0)]:
        with pytest.raises(ShapeError):
            ChainMap(X, X, {key: [[F(1)]]})
    # an entry the strand worlds do not allow: 1/2 from Int to Int
    with pytest.raises(IncompatibleWorldsError):
        ChainMap(X, X, {(0, 0, 0): [[F(1, 2)]]})
    # an all-zero block has its shape checked before it is dropped
    for M in ([[]], [[F(0)], [F(0)]]):
        with pytest.raises(ShapeError, match="wrong shape"):
            ChainMap(X, X, {(0, 0, 0): M})
    # unchecked maps are taken as given
    ChainMap(X, X, {(0, 0, 0): [[F(1)], [F(5)]]}, False)
    assert ChainMap(X, X, {(0, 0, 0): [[F(5)]]}).blocks == {(0, 0, 0): [[F(5)]]}


def test_check_blocks_matches_entrywise():
    """The once-per-block canonical-map decision accepts and refuses
    exactly what mult_map_allowed entry by entry does."""
    cases = [
        ([Z_INT(), Z_INV(2), Z_RAT(), Z_LOC(2), Z_SEMILOC(2, 3), Z_PADIC(2),
          Z_PADIC(3), Z_PADICRAT(2)],
         [F(0), F(1), F(-6), F(1, 2), F(3, 4), F(1, 5)]),
        ([VAL(s) for s in ("V", "Vp", "K", "VhatM", "VhatMInv", "VhatP",
                           "VhatPFull", "VhatPInv")],
         [RatXY.const(0), RatXY.const(1), rx(), ry(), rx().inv(), ry().inv(),
          ry() * rx() ** -2, rx() + ry(), ry() / (RatXY.const(1) + rx())]),
    ]
    accepted = refused = 0
    for worlds, entries in cases:
        for ws in worlds:
            for wt in worlds:
                src, dst = ChainComplex.unit(ws), ChainComplex.unit(wt)
                for e in entries:
                    try:
                        _check_blocks({(0, 0, 0): [[e]]}, src, dst, 0)
                        ok = True
                    except IncompatibleWorldsError:
                        ok = False
                    assert ok == mult_map_allowed(ws, wt, e), (ws, wt, e)
                    accepted += ok
                    refused += not ok
    assert accepted and refused


def test_check_blocks_twisted_entries():
    # VhatP -> VhatPFull is no canonical map, but y times it is a module map
    VhatP, VhatPFull = VAL("VhatP"), VAL("VhatPFull")
    src = ChainComplex("valrank2", {0: [(VhatP, 2)]}, {})
    dst = ChainComplex.unit(VhatPFull)
    _check_blocks({(0, 0, 0): [[ry(), ry() * rx()]]}, src, dst, 0)
    with pytest.raises(IncompatibleWorldsError) as err:
        _check_blocks({(0, 0, 0): [[ry(), RatXY.const(1)]]}, src, dst, 0)
    assert str(err.value) == "invalid block entry 1 in block (0,0,0): VhatP -> VhatPFull"
