import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from adeltors.adelic import _combine
from adeltors.classes import PRUEFER_X, PRUEFER_Y, QUOT_KV, ModuleClass
from adeltors.complexes import _is_zero_mat
from adeltors.homology import UnsupportedMixedShape, cone_atom_classes, cross_atom_classes
from adeltors.ratfunc import RatXY, x, y
from adeltors.worlds import (FIN0, PRIME_FIELD, VAL, ZERO, Z_INT, Z_INV, Z_LOC, Z_PADIC,
                             Z_PADICRAT, Z_RAT, Z_SEMILOC, InvSet, World, WorldError,
                             canonical_map_exists, carrier_act, carrier_block,
                             complete_world, div_el, fracture_pullback, inv_el,
                             invert_primes, invert_val, is_zero_el, mult_map_allowed,
                             normal_el, world_from_name)

ALL_Z = [Z_INT(), Z_INV(2), Z_INV(2, 3), Z_RAT(), Z_LOC(2), Z_SEMILOC(2, 3),
         Z_PADIC(2), Z_PADICRAT(2)]
ALL_V = [VAL(s) for s in ("V", "Vp", "K", "VhatM", "VhatMInv", "VhatP",
                          "VhatPFull", "VhatPInv")]


_CATALOGUE = (ALL_Z + [Z_INV(3), Z_INV(2, 3, 5), Z_LOC(3), Z_SEMILOC(2, 5), Z_PADIC(3),
                       Z_PADICRAT(5), PRIME_FIELD(2), PRIME_FIELD(3), ZERO("zint")]
              + ALL_V + [ZERO("valrank2")])


def test_names_round_trip():
    """A name reads back to the same (interned) object."""
    assert [w.name for w in ALL_Z] == ["Int", "IntInv(2)", "IntInv(2,3)", "Rat", "IntLoc(2)",
                                       "IntSemiLoc(2,3)", "Padic(2)", "PadicRat(2)"]
    for w in _CATALOGUE:
        assert world_from_name(w.name, w.backend) is w
        assert repr(w) == w.name


def test_membership_units():
    assert Z_INT().contains(F(4)) and not Z_INT().contains(F(1, 2))
    assert Z_LOC(2).is_unit(F(3, 7)) and not Z_LOC(2).is_unit(F(2))
    assert Z_PADIC(2).contains(F(1, 3)) and not Z_PADIC(2).contains(F(1, 2))
    assert Z_PADICRAT(2).is_unit(F(8))
    assert Z_INV(2).is_unit(F(4)) and not Z_INV(2).is_unit(F(6))
    F3 = PRIME_FIELD(3)
    assert F3.contains(F(1, 2)) and F3.contains(F(6)) and not F3.contains(F(1, 3))
    assert F3.is_unit(F(2, 5)) and not F3.is_unit(F(6)) and not F3.is_unit(F(0))
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


# -- the valuation catalogue against a frozen copy of its old symbol tables ------
#
# The valrank2 worlds used to answer each question from a hand table keyed by
# name.  These are literal copies of those tables, with the code that read
# them; every derived predicate and operation must agree with them on all
# ordered pairs of the eight worlds and the zero world.

_OLD_MEMBER = {
    "V": lambda f: f.is_zero() or f.val() >= (0, 0),
    "Vp": lambda f: f.is_zero() or f.vy() >= 0,
    "K": lambda f: True,
    "VhatM": lambda f: f.is_zero() or (f.is_y_free() and f.vx_of_y_free() >= 0),
    "VhatMInv": lambda f: f.is_zero() or f.is_y_free(),
    "VhatP": lambda f: f.is_zero() or f.vy() >= 0,
    "VhatPFull": lambda f: f.is_zero() or f.val() >= (0, 0),
    "VhatPInv": lambda f: True,
}
_OLD_UNIT = {
    "V": lambda f: f.val() == (0, 0),
    "Vp": lambda f: f.vy() == 0,
    "K": lambda f: True,
    "VhatM": lambda f: f.is_y_free() and f.vx_of_y_free() == 0,
    "VhatMInv": lambda f: f.is_y_free(),
    "VhatP": lambda f: f.vy() == 0,
    "VhatPFull": lambda f: f.val() == (0, 0),
    "VhatPInv": lambda f: True,
}
_OLD_EDGES = {
    "V": {"Vp", "VhatPFull", "VhatM"},
    "Vp": {"K", "VhatP", "VhatMInv"},
    "VhatPFull": {"VhatP", "VhatM"},
    "VhatP": {"VhatPInv", "VhatMInv"},
    "VhatM": {"VhatMInv"},
    "K": {"VhatPInv"},
    "VhatMInv": set(),
    "VhatPInv": set(),
}
_OLD_INV_X = {"V": "Vp", "Vp": "Vp", "K": "K", "VhatM": "VhatMInv",
              "VhatMInv": "VhatMInv", "VhatP": "VhatP", "VhatPFull": "VhatP",
              "VhatPInv": "VhatPInv"}
_OLD_INV_Y = {"V": "K", "Vp": "K", "K": "K", "VhatM": None, "VhatMInv": None,
              "VhatP": "VhatPInv", "VhatPFull": "VhatPInv", "VhatPInv": "VhatPInv"}
_OLD_COMP_M = {"V": "VhatM", "VhatPFull": "VhatM", "VhatM": "VhatM"}
_OLD_COMP_P = {"V": "VhatPFull", "Vp": "VhatP", "VhatPFull": "VhatPFull",
               "VhatP": "VhatP", "VhatM": "VhatM", "VhatMInv": "VhatMInv"}
_OLD_PULLBACKS = {
    frozenset(("VhatM", "Vp")): ("VhatMInv", "V"),
    frozenset(("VhatM", "VhatP")): ("VhatMInv", "VhatPFull"),
    frozenset(("VhatPFull", "K")): ("VhatPInv", "V"),
    frozenset(("VhatP", "K")): ("VhatPInv", "Vp"),
    frozenset(("VhatPFull", "Vp")): ("VhatP", "V"),
}
_OLD_Y_FAMILY = {
    "V": (0, ("0", "O", "R")), "Vp": (0, ("0", "R", "R")), "K": (0, ("R", "R", "R")),
    "VhatPFull": (1, ("0", "O", "R")), "VhatP": (1, ("0", "R", "R")),
    "VhatPInv": (1, ("R", "R", "R")),
}
_OLD_X_COMPLETE = ("VhatM", "VhatMInv")
_OLD_INVERTED = {"V": (), "VhatM": (), "VhatPFull": (),
                 "Vp": ("x",), "VhatMInv": ("x",), "VhatP": ("x",),
                 "K": ("x", "y"), "VhatPInv": ("x", "y")}
_OLD_CROSS = {
    ("V", "Vp"): PRUEFER_X, ("VhatPFull", "VhatP"): PRUEFER_X,
    ("VhatM", "VhatMInv"): PRUEFER_X,
    ("Vp", "K"): PRUEFER_Y, ("VhatP", "VhatPInv"): PRUEFER_Y,
    ("Vp", "VhatPInv"): PRUEFER_Y,
    ("V", "K"): QUOT_KV, ("VhatPFull", "VhatPInv"): QUOT_KV,
    ("V", "VhatPInv"): QUOT_KV,
}
_OLD_CONE_SPLIT = (("V", "Vp"), ("VhatPFull", "VhatP"))
_OLD_CONE_CYCLIC = (("V", "K"), ("VhatPFull", "VhatPInv"), ("V", "VhatPInv"),
                    ("Vp", "K"), ("VhatP", "VhatPInv"), ("Vp", "VhatPInv"),
                    ("VhatM", "VhatMInv"))


def _sym(w):
    """The old symbol of a valrank2 world: its name, empty for Zero."""
    return w.name if w.kind == "val" else ""


def _old_contains(w, f):
    return f.is_zero() if w.is_zero_world else _OLD_MEMBER[w.name](f)


def _old_is_unit(w, f):
    if w.is_zero_world or f.is_zero() or not _old_contains(w, f):
        return False
    return _OLD_UNIT[w.name](f)


def _old_reach(sym):
    seen, todo = {sym}, [sym]
    while todo:
        for nxt in _OLD_EDGES[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _old_map_exists(src, dst):
    if src.is_zero_world or dst.is_zero_world or src == dst:
        return True
    return dst.name in _old_reach(src.name)


def _old_carrier_act(src, dst, f):
    if dst.is_zero_world:
        return dst.el_zero()
    if not _old_map_exists(src, dst):
        raise WorldError("no map")
    kills = dst.kind == "val" and _sym(dst) in _OLD_X_COMPLETE \
        and _sym(src) not in _OLD_X_COMPLETE
    return f.y_eval() if kills else f


def _old_invert_val(w, gens):
    if w.is_zero_world:
        return w
    sym = w.name
    if "x" in gens:
        sym = _OLD_INV_X[sym]
    if "y" in gens and sym is not None:
        sym = _OLD_INV_Y[sym]
    return VAL(sym) if sym else ZERO("valrank2")


def _old_complete(w, at):
    if w.is_zero_world:
        return w
    table = _OLD_COMP_M if at == "m" else _OLD_COMP_P
    return VAL(table[w.name]) if w.name in table else ZERO("valrank2")


def _old_pullback(w1, w2, w12):
    if not (_old_map_exists(w1, w12) and _old_map_exists(w2, w12)):
        return None
    hit = _OLD_PULLBACKS.get(frozenset((_sym(w1), _sym(w2))))
    return VAL(hit[1]) if hit and hit[0] == _sym(w12) else None


def _old_mult_map_allowed(src, dst, f):
    if dst.is_zero_world:
        return True
    if _old_map_exists(src, dst):
        return _old_contains(dst, f)
    if f.is_zero():
        return True
    if _sym(src) not in _OLD_Y_FAMILY or _sym(dst) not in _OLD_Y_FAMILY:
        return False
    lev_s, ts = _OLD_Y_FAMILY[src.name]
    lev_d, td = _OLD_Y_FAMILY[dst.name]
    if lev_s > lev_d:
        return False

    def slice_of(types, b):
        return types[0] if b < 0 else types[1] if b == 0 else types[2]

    def prod(a, b):
        return "0" if "0" in (a, b) else "O" if a == b == "O" else "R"

    b0, a0 = f.val()
    for b in range(-2, 3):
        for c in range(b0, b0 + 3):
            got = prod(slice_of(ts, b), ("O" if a0 >= 0 else "R") if c == b0 else "R")
            want = slice_of(td, b + c)
            if not (got == "0" or got == want or (got == "O" and want == "R")):
                return False
    return True


def _old_pivot_size(w, f):
    v = f.val()
    sym = _sym(w)
    if sym in ("V", "VhatPFull"):
        return (v, 0)
    if sym in ("Vp", "VhatP"):
        return (v[0], 0)
    if sym == "VhatM":
        return (v[1], 0)
    return (0, 0)


def _old_generator(w, f):
    if f.is_zero():
        return w.el_zero()
    if _old_is_unit(w, f):
        return w.el_one()
    b, a = f.val()
    sym = _sym(w)
    if sym in ("V", "VhatPFull"):
        return RatXY.monomial(a, b)
    if sym in ("Vp", "VhatP"):
        return RatXY.monomial(0, b)
    if sym == "VhatM":
        return RatXY.monomial(f.vx_of_y_free(), 0)
    raise WorldError("no generator normal form")


def _old_cyclic(w, ann):
    if _old_is_unit(w, ann):
        return ModuleClass()
    gen = _old_generator(w, ann)
    if gen.is_zero():
        return ModuleClass.free(w)
    b, a = gen.val()
    if _sym(w) in ("V", "VhatPFull", "VhatM"):
        return ModuleClass([("cyc", "V", (b, a))])
    if _sym(w) in ("Vp", "VhatP"):
        return ModuleClass([("cyc", "Vp", b)])
    raise ValueError("no cyclic normal form")


def _old_cross(w1, w2, e):
    b, _a = _old_generator(w1, e).val()
    tag = _OLD_CROSS.get((_sym(w1), _sym(w2)))
    if tag is None:
        raise UnsupportedMixedShape("no cross-atom rule")
    if tag == PRUEFER_X and b > 0 and _sym(w1) in ("V", "VhatPFull"):
        raise UnsupportedMixedShape("y-power")
    return ModuleClass(), ModuleClass.quot(tag)


def _old_cone(w1, w2, a):
    gen = _old_generator(w1, a)
    b, _j = gen.val()
    pair = (_sym(w1), _sym(w2))
    if pair in _OLD_CONE_SPLIT:
        if b == 0:
            return _old_cyclic(w1, gen), ModuleClass()
        return ModuleClass.quot(PRUEFER_X), ModuleClass.quot(PRUEFER_X)
    if pair in _OLD_CONE_CYCLIC:
        return _old_cyclic(w1, gen), ModuleClass()
    raise UnsupportedMixedShape("no cone-atom rule")


def _outcome(fn, *args):
    """fn's value, or the type of the exception it raises."""
    try:
        return ("value", fn(*args))
    except Exception as exc:
        return ("raises", type(exc))


_ONE = RatXY.const(1)
_SAMPLE = [RatXY.const(0), _ONE, RatXY.const(-2), x(), y(), _ONE / x(), _ONE / y(),
           x() * y(), y() / x(), x() / y(), x() ** 2 * y(), _ONE + x(), (_ONE + x()).inv(),
           x() + y(), (x() + y()).inv(), y() / x() + x(), RatXY.const(3) * y() ** 2 / x()]
_MONOMIALS = [RatXY.const(0)] + [RatXY.monomial(a, b, c) for a in (-2, -1, 0, 1, 2)
                                 for b in (-1, 0, 1, 2) for c in (1, -3)]
_VZ = ALL_V + [ZERO("valrank2")]


def test_val_membership_and_generators_match_the_old_tables():
    for w in _VZ:
        for f in _SAMPLE:
            assert w.contains(f) == _old_contains(w, f), (w, f)
            assert w.is_unit(f) == _old_is_unit(w, f), (w, f)
            if f.is_zero():
                continue
            assert _outcome(w.pivot_size, f) == _outcome(_old_pivot_size, w, f), (w, f)
            assert _outcome(w.canonical_generator, f) == _outcome(_old_generator, w, f), (w, f)
            assert _outcome(ModuleClass.cyclic, w, f) == _outcome(_old_cyclic, w, f), (w, f)


def test_val_maps_and_operations_match_the_old_tables():
    pullbacks = 0
    for src in _VZ:
        assert invert_val(src, frozenset()) == _old_invert_val(src, ())
        for gens in (("x",), ("y",), ("x", "y")):
            assert invert_val(src, frozenset(gens)) == _old_invert_val(src, gens), (src, gens)
        for at in ("m", "p"):
            assert complete_world(src, at) == _old_complete(src, at), (src, at)
        for dst in _VZ:
            assert canonical_map_exists(src, dst) == _old_map_exists(src, dst), (src, dst)
            if src.kind == dst.kind == "val":
                assert _combine(src, dst) == _old_invert_val(dst, _OLD_INVERTED[src.name])
            for f in _SAMPLE:
                assert _outcome(carrier_act, src, dst, f) == \
                    _outcome(_old_carrier_act, src, dst, f), (src, dst, f)
            for f in _MONOMIALS:
                assert mult_map_allowed(src, dst, f) == _old_mult_map_allowed(src, dst, f), \
                    (src, dst, f)
            for w12 in _VZ:
                want = _old_pullback(src, dst, w12)
                assert fracture_pullback(src, dst, w12) == want, (src, dst, w12)
                pullbacks += want is not None
    assert pullbacks == 2 * len(_OLD_PULLBACKS)


def test_val_atom_rules_match_the_old_tables():
    answered = set()
    for w1 in _VZ:
        for w2 in _VZ:
            for f in _SAMPLE[1:]:
                cross = _outcome(cross_atom_classes, w1, w2, f)
                assert cross == _outcome(_old_cross, w1, w2, f), (w1, w2, f)
                cone = _outcome(cone_atom_classes, w1, w2, f)
                assert cone == _outcome(_old_cone, w1, w2, f), (w1, w2, f)
                if cross[0] == "value":
                    answered.add((w1.name, w2.name))
    assert answered == set(_OLD_CROSS)


def test_val_worlds_sort_by_name():
    assert [w.name for w in sorted(ALL_V, key=lambda w: w.sort_key())] == \
        sorted(w.name for w in ALL_V)


# -- interning: one object per world ------------------------------------------

def test_every_constructor_path_gives_the_one_world():
    paths = [
        [Z_INT(), World("zint", "z"), World("zint", "z", None, InvSet(frozenset())),
         world_from_name("Int"), invert_primes(Z_INT(), frozenset()),
         fracture_pullback(Z_PADIC(2), Z_INV(2), Z_PADICRAT(2)),
         _combine(Z_INT(), Z_INT())],
        [Z_INV(2, 3), Z_INV(3, 2), world_from_name("IntInv(2,3)"),
         invert_primes(Z_INV(2), frozenset({3})), invert_primes(Z_INT(), frozenset({2, 3})),
         _combine(Z_INV(2), Z_INV(3)), World("zint", "z", inv=InvSet(frozenset({3, 2})))],
        [Z_SEMILOC(2, 3), world_from_name("IntSemiLoc(2,3)"),
         fracture_pullback(Z_PADIC(3), Z_LOC(2), Z_PADICRAT(3))],
        [Z_PADIC(2), complete_world(Z_INT(), 2), complete_world(Z_LOC(2), 2),
         _combine(Z_INT(), Z_PADIC(2)), world_from_name("Padic(2)")],
        [Z_PADICRAT(2), invert_primes(Z_PADIC(2), frozenset({2})),
         _combine(Z_INV(2), Z_PADIC(2)), world_from_name("PadicRat(2)")],
        [PRIME_FIELD(3), World("zint", "fp", char=3), world_from_name("PrimeField(3)")],
        [ZERO("zint"), complete_world(Z_INV(2), 2), world_from_name("Zero"), World("zint", "zero")],
        [VAL("Vp"), invert_val(VAL("V"), frozenset({"x"})), _combine(VAL("Vp"), VAL("V")),
         World("valrank2", "val", comp_height=0, loc_height=1), world_from_name("Vp")],
        [VAL("VhatPFull"), complete_world(VAL("V"), "p"),
         fracture_pullback(VAL("VhatM"), VAL("VhatP"), VAL("VhatMInv"))],
        [VAL("V"), fracture_pullback(VAL("VhatPFull"), VAL("K"), VAL("VhatPInv")),
         World("valrank2", "val", None, FIN0, 0, 0, 0)],
        [ZERO("valrank2"), invert_val(VAL("VhatM"), frozenset({"y"})),
         complete_world(VAL("Vp"), "m"), world_from_name("Zero", "valrank2")],
    ]
    for group in paths:
        assert all(w is group[0] for w in group), group
    firsts = [group[0] for group in paths]
    for a in firsts:
        assert [b == a for b in firsts] == [b is a for b in firsts]


def test_copy_deepcopy_and_pickle_keep_the_object():
    for w in _CATALOGUE:
        assert copy.copy(w) is w and copy.deepcopy(w) is w
        assert pickle.loads(pickle.dumps(w)) is w
    held = {"strands": [(w, 2) for w in _CATALOGUE]}
    assert all(a is b for (a, _), (b, _) in zip(copy.deepcopy(held)["strands"], held["strands"]))


def test_worlds_hash_as_frozen_dataclasses_and_are_immutable():
    """The hash is the field tuple's, as the frozen dataclass hashed it, so
    sets and dicts of worlds iterate as before interning."""
    for w in _CATALOGUE:
        assert hash(w) == hash(tuple(getattr(w, f.name) for f in dataclasses.fields(w)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.comp_height = 1


def _zint_map_reference(src, dst):
    """A canonical map src -> dst of integer-backend worlds, read off
    carrier membership: no other completion, and every prime inverted in
    src (of those the catalogue above uses) inverted in dst.  A prime
    field maps only to itself."""
    if "fp" in (src.kind, dst.kind):
        return src.kind == dst.kind and src.char == dst.char
    if src.comp is not None and src.comp != dst.comp:
        return False
    return all(dst.contains(F(1, p)) for p in (2, 3, 5, 7) if src.contains(F(1, p)))


def test_memoised_canonical_maps_match_a_reference():
    for src in _CATALOGUE:
        for dst in _CATALOGUE:
            if src.backend != dst.backend:
                want = False
            elif src.is_zero_world or dst.is_zero_world:
                want = True
            elif src.backend == "zint":
                want = _zint_map_reference(src, dst)
            else:
                want = _old_map_exists(src, dst)
            assert canonical_map_exists.__wrapped__(src, dst) == want, (src, dst)
            for _ in range(2):      # the first call may fill the memo, the second reads it
                assert canonical_map_exists(src, dst) == want, (src, dst)


# -- zero tests: every carrier element is falsy exactly when it is zero ------------

def test_zero_tests_agree_with_equality(rng):
    values = [0, 1, -1, F(0), F(4, 2), F(-3, 1), F(1, 2), RatXY.const(0), x() - x(),
              RatXY.const(F(4, 2))]
    for _ in range(300):
        values += [rng.randint(-3, 3), F(rng.randint(-3, 3), rng.randint(1, 3)),
                   RatXY.monomial(rng.randint(-1, 2), rng.randint(-1, 2), rng.randint(-2, 2)),
                   (x() + rng.randint(-1, 1)) / (y() + 1) - rng.choice([0, x() / (y() + 1)])]
    for e in values:
        zero = e.is_zero() if isinstance(e, RatXY) else e == 0
        assert is_zero_el(e) == zero == (not bool(e)) == (e == 0), e
    assert {type(e) for e in values} == {int, F, RatXY}
    assert _is_zero_mat([]) and _is_zero_mat([[]]) and _is_zero_mat([[], []])
    for zero, nonzero in ((0, 3), (F(0), F(1, 2)), (F(0), F(2, 1)), (RatXY.const(0), y())):
        for r, c in ((1, 1), (2, 3), (3, 2)):
            assert _is_zero_mat([[zero] * c for _ in range(r)])
            for i in range(r):
                for j in range(c):
                    M = [[zero] * c for _ in range(r)]
                    M[i][j] = nonzero
                    assert not _is_zero_mat(M), (M, i, j)
