import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adeltors.homology import homology
from adeltors.library import random_complex, valrank2_library
from adeltors.localize import Site
from adeltors.ratfunc import (RatXY, _poly_divexact, _trim, parse_ratxy, poly_add,
                              poly_gcd, poly_mul, poly_neg, poly_val, x, y)


def test_monomial_valuations():
    assert x().val() == (0, 1)
    assert y().val() == (1, 0)
    assert (y() / x() ** 2).val() == (1, -2)
    assert (RatXY.const(1) + y()).val() == (0, 0)
    assert (RatXY.const(1) / (x() + y())).val() == (0, -1)


def test_reduction_and_equality():
    f = (x() + y()) * (x() - y()) / (x() + y())
    assert f == x() - y()
    g = (x() * y() + x()) / (y() + RatXY.const(1))
    assert g == x()
    assert (x() / x()) == RatXY.const(1)


def test_y_eval_cases():
    assert (x() / (x() + y())).y_eval() == RatXY.const(1)
    w = (y() + x() * y()) / (x() * y())
    assert w.is_y_free() and w.y_eval() == w
    try:
        (RatXY.const(1) / y()).y_eval()
        assert False
    except ZeroDivisionError:
        pass


def test_parse():
    f = parse_ratxy("3*x^2*y/(1+x)")
    assert f.val() == (1, 2)
    assert parse_ratxy("x - x") == RatXY.const(0)


simple = st.builds(RatXY.monomial,
                   st.integers(0, 3), st.integers(0, 2),
                   st.integers(-4, 4).filter(lambda c: c != 0))


@settings(max_examples=150, deadline=None)
@given(simple, simple, simple)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=60, deadline=None)
@given(simple, simple)
def test_valuation_multiplicative(a, b):
    f = a + b
    g = a * b if not (a * b).is_zero() else a
    if f.is_zero() or g.is_zero():
        return
    va, vb = f.val(), g.val()
    prod = f * g
    assert prod.val() == (va[0] + vb[0], va[1] + vb[1])


def test_gcd_bivariate():
    from adeltors.ratfunc import poly_mul
    p = {(1, 0): Fraction(1), (0, 1): Fraction(1)}          # x + y
    q = {(1, 0): Fraction(1), (0, 0): Fraction(1)}          # x + 1
    g = poly_gcd(poly_mul(p, q), poly_mul(p, p))
    # gcd should be an associate of x + y
    f = RatXY(g, p)
    assert f.val() == (0, 0) and len(f.num) == 1


# -- fast paths against the full reduction --------------------------------------

def _poly(rng, terms, ymax=2):
    return {(rng.randint(0, 2), rng.randint(0, ymax)): Fraction(rng.randint(-3, 3))
            for _ in range(terms)}


# x + y, 1 + x and x - 2y: fractions over them share factors, which
# reaches the sum's final gcd and non-trivial cross-cancellations
_FACTORS = ({(1, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1}, {(1, 0): 1, (0, 1): -2})


def _pooled(rng):
    """c m F / (G H) for a monomial m, G from the pool and F, H from the
    pool or 1."""
    maybe = _FACTORS + ({(0, 0): 1},)
    m = {rng.choice([(0, 0), (1, 0), (0, 1)]): rng.choice([1, -1, 3])}
    num = poly_mul(m, rng.choice(maybe))
    return RatXY(num, poly_mul(rng.choice(_FACTORS), rng.choice(maybe)))


def _operand(rng):
    """Zero, one, constants, monomials, Laurent monomials, y-free and
    general elements, fractions over a small pool of shared factors, and
    the int and Fraction operands the fast paths treat apart."""
    kind = rng.randrange(11)
    if kind == 0:
        return RatXY.const(0)
    if kind == 1:
        return RatXY.const(1)
    if kind == 2:
        return RatXY.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    if kind == 3:
        return RatXY.monomial(rng.randint(0, 3), rng.randint(0, 2), rng.randint(-3, 3))
    if kind == 4:
        return rng.choice([0, 1, -1, 2])
    if kind == 5:
        return rng.choice([Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3)])
    if kind == 9:
        # negative exponents reached by division; integral (4/2) and
        # non-integral (1/3) coefficient quotients
        top = RatXY.monomial(rng.randint(0, 3), rng.randint(0, 2),
                             rng.choice([1, -1, 4, 6, Fraction(2, 3)]))
        return top / RatXY.monomial(rng.randint(0, 3), rng.randint(0, 2),
                                    rng.choice([1, 2, 3, -2, Fraction(1, 2)]))
    if kind == 10:
        return _pooled(rng)
    ymax = 0 if kind == 6 else 2
    den = _poly(rng, rng.randint(1, 3), ymax)
    while not _trim(den):
        den = _poly(rng, rng.randint(1, 3), ymax)
    return RatXY(_poly(rng, rng.randint(1, 3), ymax), den)


def _parts(a):
    if isinstance(a, RatXY):
        return a.num, a.den
    return ({(0, 0): Fraction(a)} if a else {}), {(0, 0): Fraction(1)}


def _reduce_everything(num, den):
    """The canonical key, by a full gcd on every input (no fast paths)."""
    num, den = _trim(num), _trim(den)
    if not num:
        return (), (((0, 0), Fraction(1)),)
    sa = min(a for (a, _) in [*num, *den])
    sb = min(b for (_, b) in [*num, *den])
    num = {(a - sa, b - sb): c for (a, b), c in num.items()}
    den = {(a - sa, b - sb): c for (a, b), c in den.items()}
    g = poly_gcd(num, den)
    num, den = _poly_divexact(num, g), _poly_divexact(den, g)
    lc = den[max(den, key=lambda m: (m[1], m[0]))]
    return (tuple(sorted((m, Fraction(c) / lc) for m, c in num.items())),
            tuple(sorted((m, Fraction(c) / lc) for m, c in den.items())))


def _exact(f):
    """Whether every coefficient of f is an int or a Fraction (never a float)."""
    return all(type(c) in (int, Fraction) for c in [*f.num.values(), *f.den.values()])


def test_fast_paths_match_full_reduction(rng):
    for _ in range(600):
        a, b = _operand(rng), _operand(rng)
        (an, ad), (bn, bd) = _parts(a), _parts(b)
        if isinstance(a, RatXY):
            assert a._key == _reduce_everything(an, ad) and _exact(a)
            assert (-a)._key == _reduce_everything(poly_neg(an), ad)
        if not isinstance(a, RatXY) and not isinstance(b, RatXY):
            b = RatXY.const(b)
        add = _reduce_everything(poly_add(poly_mul(an, bd), poly_mul(bn, ad)), poly_mul(ad, bd))
        sub = _reduce_everything(poly_add(poly_mul(an, bd), poly_neg(poly_mul(bn, ad))),
                                 poly_mul(ad, bd))
        mul = _reduce_everything(poly_mul(an, bn), poly_mul(ad, bd))
        assert (a + b)._key == add and (b + a)._key == add
        # the sum's denominator shares b's factors: its final gcd cancels them
        assert ((a + b) - b)._key == _reduce_everything(an, ad)
        assert (a - b)._key == sub
        assert (a * b)._key == mul and (b * a)._key == mul
        assert all(map(_exact, [a + b, b + a, a - b, a * b, b * a]))
        if bn:
            div = _reduce_everything(poly_mul(an, bd), poly_mul(ad, bn))
            q = (a if isinstance(a, RatXY) else RatXY.const(a)) / b
            assert q._key == div and _exact(q)
            if isinstance(b, RatXY):
                assert b.inv()._key == _reduce_everything(bd, bn) and _exact(b.inv())


def test_equal_values_compare_and_hash_alike(rng):
    """Equal values reached by different routes are equal, hash equal and
    are one key; the cached valuation is poly_val's on every call."""
    one_x = RatXY.const(1) + x()
    routes = [
        [RatXY.const(2), 2, Fraction(4, 2), RatXY.const(1) + 1, RatXY.const(Fraction(4, 2)),
         x() * 2 / x(), RatXY({(0, 0): Fraction(4, 2)}, {(0, 0): Fraction(1)}),
         parse_ratxy("4/2")],
        [x() * x() / x(), x(), (x() * one_x) / one_x, parse_ratxy("x^2/x")],
        [one_x / one_x, RatXY.const(1), 1, one_x * one_x.inv(), parse_ratxy("(1+x)/(1+x)")],
        [RatXY.const(0), 0, x() - x(), one_x * 0],
    ]
    for group in routes:
        for f in group:
            assert f == group[0] and group[0] == f and hash(f) == hash(group[0])
        assert len(set(group)) == 1 and len(dict.fromkeys(group)) == 1
    assert len({f for group in routes for f in group}) == 4
    elements = [f for group in routes for f in group] + [_operand(rng) for _ in range(300)]
    for f in elements:
        if not isinstance(f, RatXY):
            f = RatXY.const(f)
        want = None
        if not f.is_zero():
            (nb, na), (db, da) = poly_val(f.num), poly_val(f.den)
            want = (nb - db, na - da)
        assert f.val() == want and f.val() == want


@pytest.mark.parametrize("other", ["1", None, 1.5])
def test_arithmetic_with_a_non_exact_operand_raises_type_error(other):
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x(), other)
        with pytest.raises(TypeError):
            op(other, x())
    assert x() != other


def test_zeroth_power_is_one():
    """f ** 0 is 1 for every f, zero included, as for int and Fraction;
    a negative power is a power of the inverse."""
    one_x = RatXY.const(1) + x()
    for f in (RatXY.const(0), x(), one_x):
        assert f ** 0 == 1
    assert one_x ** -2 * one_x ** 2 == 1 and (one_x ** -1)._key == one_x.inv()._key


def test_laurent_quotients_keep_integers():
    f = RatXY.monomial(1, 0, 4) / RatXY.monomial(0, 1, 2)
    assert f.num == {(1, 0): 2} and type(f.num[(1, 0)]) is int and f.den == {(0, 1): 1}
    g = RatXY.monomial(0, 2) / RatXY.monomial(3, 0, 3)
    assert g.num == {(0, 2): Fraction(1, 3)} and g.den == {(3, 0): 1}
    assert (g * RatXY.monomial(3, 0, 6)).num == {(0, 2): 2}
    assert (f * g)._key == ((((0, 1), Fraction(2, 3)),), (((2, 0), 1),))


@pytest.mark.parametrize("text, printed", [
    ("4/2", "2"), ("0.5*x", "1/2*x"), ("x/y", "(x)/(y)"),
    ("-3*x^2*y/(6*y^3)", "(-1/2*x^2)/(y^2)"), ("(1 + x)/(2*y)", "(1/2 + 1/2*x)/(y)"),
    ("2.0", "2")])
def test_printed_forms_are_pinned(text, printed):
    """repr reads the same whether a coefficient is an int or a Fraction."""
    assert repr(parse_ratxy(text)) == printed


def _is_y_free_by_evaluation(f):
    if f.is_zero():
        return True
    if f.vy() < 0:
        return False
    return f == f.y_eval()


def test_structural_y_free_matches_evaluation(rng):
    for _ in range(1500):
        f = _operand(rng)
        if not isinstance(f, RatXY):
            f = RatXY.const(f)
        assert f.is_y_free() == _is_y_free_by_evaluation(f)
        if f.is_y_free() and not f.is_zero():
            assert f.vx_of_y_free() == f.y_eval().val()[1]
    w = (y() + x() * y()) / (x() * y())
    assert w.is_y_free() and not (x() / (x() + y())).is_y_free()


@pytest.mark.parametrize("text", ["x^1.5", "x^True", "x^(1+1)", "x^-2", "x^65",
                                  "x^99999999999999", "x^65y"])
def test_parse_rejects_bad_exponents(text):
    with pytest.raises(ValueError):
        parse_ratxy(text)


def test_parse_exponents():
    assert parse_ratxy("x^0") == RatXY.const(1)
    assert parse_ratxy("(1+x)^2") == (RatXY.const(1) + x()) * (RatXY.const(1) + x())
    assert parse_ratxy("y^64") == y() ** 64


def test_parse_reads_decimals_exactly():
    assert parse_ratxy("0.1*x") == parse_ratxy("x/10")
    assert parse_ratxy("2.5e-3") == RatXY.const(Fraction(1, 400))
    assert parse_ratxy("1e400") == RatXY.const(10 ** 400)


@pytest.mark.parametrize("text", ["True", "False*x", "1j", "x + 2.5j", "'x'", "None"])
def test_parse_rejects_non_numeric_constants(text):
    with pytest.raises(ValueError):
        parse_ratxy(text)


@pytest.mark.parametrize("text", ["x^2 y", "1 +", "x)(", "", "x; y", "xz"])
def test_parse_rejects_unparsable_text(text):
    with pytest.raises(ValueError):
        parse_ratxy(text)


def test_parse_refuses_over_deep_expressions():
    with pytest.raises(ValueError):
        parse_ratxy("+".join(["x"] * 3000))


def test_parse_reads_juxtaposed_products():
    assert parse_ratxy("x^2y") == x() ** 2 * y()
    assert parse_ratxy("xy") == x() * y() == parse_ratxy("yx")
    assert parse_ratxy("-3/2*xy^2 + x^10y") == Fraction(-3, 2) * x() * y() ** 2 + x() ** 10 * y()
    assert parse_ratxy("2y") == 2 * y()
    assert parse_ratxy("(x^2y)/(1 + xy)") == x() ** 2 * y() / (1 + x() * y())


def _printed_inputs():
    """The valrank2 library and the 16 valrank2 inputs of the bench's
    `random` workload (the stream bench/workloads.py draws them from)."""
    site = Site("valrank2")
    shapes = random.Random("20260801-valrank2-[('atoms', 4), ('primes', (2, 3))]")
    return [X for _, X in valrank2_library(site)] + \
        [random_complex(shapes, site.base, primes=(2, 3), atoms=4) for _ in range(16)]


def test_printed_forms_read_back(rng):
    """Every entry and class generator the package prints over the
    valrank2 library and the random bench inputs, and 200 seeded
    elements, parse back to what was printed."""
    seen = set()
    for X in _printed_inputs():
        for e in (e for M in X.blocks.values() for row in M for e in row):
            assert parse_ratxy(repr(e)) == e, e
            seen.add(repr(e))
        for cls in homology(X).data.values():
            for gen in (re.fullmatch(r"Cyclic\(Vp?,(.*)\)", p) for p in cls.describe()):
                if gen:
                    assert repr(parse_ratxy(gen[1])) == gen[1], gen[0]
                    seen.add(gen[1])
    assert {"x^2y", "xy"} <= seen
    for _ in range(200):
        e = _operand(rng)
        e = e if isinstance(e, RatXY) else RatXY.const(e)
        assert parse_ratxy(repr(e)) == e, e
