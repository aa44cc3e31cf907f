"""SNF soundness: the recorded elementary operations take A to D, every
add scalar lies in the world and every scale is a unit, and D is a
divisibility chain, pivoting on minimal valuation.  The randomized check
plays the role of the brute-force row/column-operation oracle: the
record and divisibility are verified directly rather than recomputed."""

from fractions import Fraction as F

import pytest

from adeltors.linalg import mat_id, mat_mul, snf
from adeltors.ratfunc import RatXY, x, y
from adeltors.worlds import (VAL, Z_INT, Z_INV, Z_LOC, Z_PADIC, Z_RAT,
                             Z_SEMILOC)


def _is_zero(e):
    return e == 0 if isinstance(e, (int, F)) else e.is_zero()


def _replay(ops, A, world):
    """Apply the record to a copy of A, row and column operations alike,
    checking each scalar as it goes."""
    M = [list(row) for row in A]
    for op in ops:
        kind, i, j = op[0], op[1], op[2]   # j is the unit of a row_scale
        if kind == "row_add":
            assert world.contains(op[3]), op
            M[j] = [a + op[3] * b for a, b in zip(M[j], M[i])]
        elif kind == "col_add":
            assert world.contains(op[3]), op
            for row in M:
                row[j] += op[3] * row[i]
        elif kind == "row_swap":
            M[i], M[j] = M[j], M[i]
        elif kind == "col_swap":
            for row in M:
                row[i], row[j] = row[j], row[i]
        else:
            assert kind == "row_scale" and world.is_unit(j), op
            M[i] = [e * j for e in M[i]]
    return M


def check_snf(A, world):
    D, ops = snf(A, world)
    assert _replay(ops, A, world) == D
    ds = [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]
    for i in range(len(ds) - 1):
        if not _is_zero(ds[i]) and not _is_zero(ds[i + 1]):
            assert world.divides(ds[i], ds[i + 1])
        if _is_zero(ds[i]):
            assert _is_zero(ds[i + 1])
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert _is_zero(D[i][j])
    return ds


def test_spec_integer_example():
    ds = check_snf([[F(2), F(4)], [F(6), F(8)]], Z_INT())
    assert ds == [F(2), F(4)]


def test_identity_fixed():
    ds = check_snf([[F(1), F(0)], [F(0), F(1)]], Z_INT())
    assert ds == [F(1), F(1)]


def test_valuation_pivot_example():
    # lex valuation oracle: v(x) = (0,1) < v(y) = (1,0), so x is the pivot
    assert VAL("V").pivot_size(x()) < VAL("V").pivot_size(y())
    ds = check_snf([[y(), x()]], VAL("V"))
    assert ds == [x()]


def test_snf_random_many(rng):
    worlds = [Z_INT(), Z_LOC(2), Z_PADIC(2), Z_INV(2), Z_RAT(), Z_SEMILOC(2, 3)]
    for trial in range(1100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[F(rng.randint(-40, 40)) for _ in range(n)] for _ in range(m)]
        for w in worlds[:2] + worlds[5:]:
            check_snf(A, w)
        A2 = [[F(rng.randint(-40, 40), rng.choice([1, 3, 9, 5])) for _ in range(n)]
              for _ in range(m)]
        check_snf(A2, Z_PADIC(2))
        check_snf(A2, Z_LOC(2))
        A3 = [[F(rng.randint(-40, 40), rng.choice([1, 2, 4])) for _ in range(n)]
              for _ in range(m)]
        check_snf(A3, Z_INV(2))
        check_snf(A3, Z_RAT())


SNF_WORLDS = [Z_INT(), Z_INV(2), Z_LOC(3), Z_SEMILOC(2, 3), Z_RAT(), Z_PADIC(2)]


def test_snf_int_and_fraction_copies_agree(rng):
    """An int matrix and its Fraction copy give equal D and records; no
    entry or op scalar is ever a float or an integral Fraction, and over
    Z every one is an int."""
    for trial in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
        AF = [[F(e) for e in row] for row in A]
        for w in SNF_WORLDS:
            got, got_f = snf(A, w), snf(AF, w)
            assert got == got_f, (A, w)
            for D, ops in (got, got_f):
                assert all(type(e) is int or (type(e) is F and e.denominator != 1)
                           for e in _scalars(D, ops)), (A, w)
            check_snf(A, w)
        assert all(type(e) is int for e in _scalars(*snf(AF, Z_INT()))), A


def _scalars(D, ops):
    """Every entry of D and every add or scale scalar of the record."""
    return [e for row in D for e in row] + [op[-1] for op in ops if "swap" not in op[0]]


def test_snf_random_valuation(rng):
    for trial in range(340):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = [[RatXY.monomial(rng.randint(0, 2), rng.randint(0, 2),
                             rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        for w in ("V", "VhatP", "VhatM", "K", "VhatPFull"):
            if w == "VhatM":
                B = [[e.y_eval() if e.vy() is not None and e.vy() >= 0 else
                      RatXY.const(0) for e in row] for row in A]
                check_snf(B, VAL(w))
            else:
                check_snf(A, VAL(w))


def test_snf_semilocal_pid():
    # two non-inverted primes: the entry with the smallest non-inverted
    # part need not divide the rest (2 and 3), so the gcd loop must run
    W = Z_SEMILOC(2, 3)
    assert check_snf([[F(2), F(3)]], W) == [F(1)]
    assert check_snf([[F(2), F(0)], [F(0), F(3)]], W) == [F(1), F(6)]
    assert check_snf([[F(4, 5), F(9, 7)]], W) == [F(1)]


def test_snf_entry_outside_world():
    from adeltors.linalg import SNFError
    with pytest.raises(SNFError):
        snf([[F(1, 2)]], Z_INT())


def _dense_mul(A, B):
    """Every product summed, from row[0] * 0 (0 when k = 0)."""
    k = len(B)
    m = len(B[0]) if k else 0
    return [[sum((row[t] * B[t][j] for t in range(k)), row[0] * 0 if k else 0)
             for j in range(m)] for row in A]


def _random_entry(rng, carrier):
    if rng.random() < 0.5:
        return carrier(0)
    if carrier is F:
        return F(rng.choice([1, -1, rng.randint(-9, 9)]), rng.randint(1, 3))
    return rng.choice([RatXY.const(1), RatXY.const(-1),
                       RatXY.monomial(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-3, 3)),
                       (x() + y()) / (RatXY.const(1) + x())])


@pytest.mark.parametrize("carrier", [F, RatXY.const], ids=["Fraction", "RatXY"])
def test_mat_mul_matches_dense(rng, carrier):
    one, zero = carrier(1), carrier(0)
    for _ in range(150):
        n, k, m = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4)
        A = [[_random_entry(rng, carrier) for _ in range(k)] for _ in range(n)]
        if k and rng.random() < 0.3:
            A[rng.randrange(n)] = [zero] * k
        B = [[_random_entry(rng, carrier) for _ in range(m)] for _ in range(k)]
        for L, R in ((A, B), (mat_id(n, rng.choice([one, -one])), A)):
            got, want = mat_mul(L, R), _dense_mul(L, R)
            assert got == want
            assert [type(e) for row in got for e in row] == \
                [type(e) for row in want for e in row]
    assert mat_mul([[], []], []) == [[], []]


def test_snf_invariants_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.choice([0, 0, 1, -1, rng.randint(-30, 30)]) for _ in range(n)]
             for _ in range(m)]
        D, _ = snf([[F(e) for e in row] for row in A], Z_INT())
        S = smith_normal_form(sympy.Matrix(A), domain=sympy.ZZ)
        want = [abs(int(S[i, i])) for i in range(min(m, n))]
        assert [D[i][i] for i in range(min(m, n))] == want, A
