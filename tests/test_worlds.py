from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from adeltors.ratfunc import RatXY, x, y
from adeltors.worlds import (PRIME_FIELD, VAL, ZERO, Z_INT, Z_INV, Z_LOC, Z_PADIC,
                             Z_PADICRAT, Z_RAT, Z_SEMILOC, WorldError,
                             canonical_map_exists, carrier_act, carrier_block,
                             complete_world, div_el, fracture_pullback, inv_el,
                             invert_primes, invert_val, mult_map_allowed, normal_el,
                             world_from_name)

ALL_Z = [Z_INT(), Z_INV(2), Z_INV(2, 3), Z_RAT(), Z_LOC(2), Z_SEMILOC(2, 3),
         Z_PADIC(2), Z_PADICRAT(2)]
ALL_V = [VAL(s) for s in ("V", "Vp", "K", "VhatM", "VhatMInv", "VhatP",
                          "VhatPFull", "VhatPInv")]


def test_names_round_trip():
    for w in ALL_Z + ALL_V:
        assert world_from_name(w.name) == w


def test_membership_units():
    assert Z_INT().contains(F(4)) and not Z_INT().contains(F(1, 2))
    assert Z_LOC(2).is_unit(F(3, 7)) and not Z_LOC(2).is_unit(F(2))
    assert Z_PADIC(2).contains(F(1, 3)) and not Z_PADIC(2).contains(F(1, 2))
    assert Z_PADICRAT(2).is_unit(F(8))
    assert Z_INV(2).is_unit(F(4)) and not Z_INV(2).is_unit(F(6))
    V = VAL("V")
    assert V.contains(y() / x()) and not V.contains(x() / y())
    assert V.is_unit((x() + RatXY.const(1)))
    assert VAL("VhatM").contains((RatXY.const(1) + x()).inv())
    assert not VAL("VhatM").contains(y())
    assert VAL("Vp").is_unit(RatXY.const(1) / x())


def test_canonical_lattice():
    assert canonical_map_exists(Z_INT(), Z_PADIC(2))
    assert canonical_map_exists(Z_INV(3), Z_PADIC(2))
    assert not canonical_map_exists(Z_INV(2), Z_PADIC(2))
    assert not canonical_map_exists(Z_PADIC(2), Z_PADIC(3))
    assert not canonical_map_exists(Z_RAT(), Z_PADIC(2))
    assert canonical_map_exists(VAL("V"), VAL("VhatPInv"))
    assert not canonical_map_exists(VAL("K"), VAL("VhatMInv"))
    assert not canonical_map_exists(VAL("VhatP"), VAL("VhatPFull"))


def test_carrier_actions():
    got = carrier_act(VAL("V"), VAL("VhatM"), y() / x() + x())
    assert got == x()
    assert carrier_act(Z_INT(), Z_PADIC(2), F(7)) == F(7)


@pytest.mark.parametrize("worlds, M", [
    (ALL_Z + [Z_PADIC(3), PRIME_FIELD(2), ZERO("zint")],
     [[F(3), F(0)], [F(-1, 5), F(7, 2)]]),
    (ALL_V + [ZERO("valrank2")],
     [[y() / x() + x(), RatXY.const(0)], [y(), x() ** 2 - y()]]),
])
def test_carrier_block_matches_entrywise(worlds, M):
    """carrier_block gives the per-entry carrier_act matrix, or raises the
    same WorldError, for every ordered pair of catalogue worlds."""
    seen = set()
    for src in worlds:
        for dst in worlds:
            try:
                want = [[carrier_act(src, dst, e) for e in row] for row in M]
            except WorldError:
                with pytest.raises(WorldError):
                    carrier_block(src, dst, M)
                seen.add("no map")
                continue
            assert carrier_block(src, dst, M) == want, (src, dst)
            seen.add("zero" if dst.is_zero_world else "same" if want == M else "y -> 0")
    if worlds[0].backend == "zint":
        assert seen == {"no map", "zero", "same"}
    else:
        assert seen == {"no map", "zero", "same", "y -> 0"}
        assert carrier_block(VAL("V"), VAL("VhatMInv"), M) == [[x(), 0], [0, x() ** 2]]


def test_ops_tables():
    assert invert_primes(Z_PADIC(2), frozenset({2})) == Z_PADICRAT(2)
    assert complete_world(Z_INV(2), 2).is_zero_world
    assert complete_world(Z_SEMILOC(2, 3), 3) == Z_PADIC(3)
    assert invert_val(VAL("VhatPFull"), frozenset({"x"})) == VAL("VhatP")
    assert invert_val(VAL("VhatM"), frozenset({"y"})).is_zero_world
    assert invert_val(VAL("V"), frozenset({"y"})) == VAL("K")
    assert complete_world(VAL("VhatM"), "p") == VAL("VhatM")
    assert complete_world(VAL("Vp"), "m").is_zero_world


def test_fracture_pullbacks():
    assert fracture_pullback(Z_PADIC(2), Z_RAT(), Z_PADICRAT(2)) == Z_LOC(2)
    assert fracture_pullback(Z_PADIC(2), Z_INV(2), Z_PADICRAT(2)) == Z_INT()
    assert fracture_pullback(Z_PADIC(3), Z_LOC(2), Z_PADICRAT(3)) == Z_SEMILOC(2, 3)
    assert fracture_pullback(Z_PADIC(2), Z_LOC(2), Z_PADICRAT(2)) is None
    assert fracture_pullback(VAL("VhatM"), VAL("VhatP"), VAL("VhatMInv")) == VAL("VhatPFull")
    assert fracture_pullback(VAL("VhatPFull"), VAL("K"), VAL("VhatPInv")) == VAL("V")


def test_mult_maps():
    assert mult_map_allowed(VAL("VhatP"), VAL("VhatPFull"), y())
    assert not mult_map_allowed(VAL("VhatP"), VAL("VhatPFull"), RatXY.const(1))
    assert mult_map_allowed(VAL("Vp"), VAL("V"), y() * x() ** -2)
    assert not mult_map_allowed(VAL("VhatP"), VAL("V"), y())   # completion drop
    assert not mult_map_allowed(Z_PADIC(2), Z_INV(2), F(2))


@pytest.mark.parametrize("w", ALL_Z + ALL_V)
def test_zero_and_one(w):
    assert w.contains(w.el_zero()) and w.contains(w.el_one())
    assert w.is_unit(w.el_one()) and not w.is_unit(w.el_zero())


def test_zint_carrier_constants_are_ints():
    for w in ALL_Z:
        assert type(w.el_zero()) is int and type(w.el_one()) is int
    assert Z_INT().canonical_generator(F(-12)) == 12
    assert type(Z_INV(2).canonical_generator(F(12))) is int
    assert Z_INV(2).canonical_generator(F(12)) == 3
    assert Z_LOC(2).canonical_generator(F(12, 7)) == 4
    assert type(Z_LOC(2).canonical_generator(F(12, 7))) is int
    assert Z_INV(2).divides(2, 3) and not Z_INT().divides(2, 3)


def test_div_el_exact_quotients():
    cases = [(-7, 2, F(-7, 2)), (7, -2, F(-7, 2)), (-6, 3, -2), (6, -4, F(-3, 2)),
             (0, -5, 0), (-1, -1, 1), (F(3, 2), F(1, 2), 3), (7, F(7, 3), 3),
             (F(-5, 4), 5, F(-1, 4)), (3 * (10 ** 30 + 1), 3, 10 ** 30 + 1),
             (10 ** 30 + 1, -(10 ** 30), F(-(10 ** 30 + 1), 10 ** 30))]
    for a, b, q in cases:
        got = div_el(a, b)
        assert got == q and type(got) is type(q), (a, b, got)
        assert got * b == a
    assert div_el(x() * y(), y()) == x()
    for u, v in [(1, 1), (-1, -1), (2, F(1, 2)), (-3, F(-1, 3)), (F(1, 3), 3),
                 (F(-2, 3), F(-3, 2))]:
        assert inv_el(u) == v and type(inv_el(u)) is type(v), u
    assert normal_el(F(-4)) == -4 and type(normal_el(F(-4))) is int
    assert type(normal_el(F(1, 2))) is F and normal_el(x()) == x()


@settings(max_examples=400, deadline=None)
@given(st.integers(-10 ** 40, 10 ** 40), st.integers(-10 ** 40, 10 ** 40).filter(bool),
       st.integers(1, 50))
def test_div_el_is_exact_and_never_a_float(a, b, den):
    q = div_el(a, b)
    assert q * b == a
    assert type(q) is (int if a % b == 0 else F)
    qf = div_el(F(a, den), F(b))
    assert qf * b == F(a, den)
    assert type(qf) is (int if qf.denominator == 1 else F)
