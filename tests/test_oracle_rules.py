"""Rule-table consistency: every registered mixed-world identification
must stabilize under the residue-truncation oracle.  The integer side is
pushed to N = 2^10 as the outer bound; the valuation side reads each
track once, above every exponent the claim names."""

import ast
import random
import re
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest

from adeltors import oracle, ruleoracle
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex
from adeltors.homology import homology
from adeltors.library import library, random_complex
from adeltors.linalg import snf
from adeltors.oracle import (OracleMismatch, oracle_check, predicted_exponents,
                             val_oracle_check, val_track_reading,
                             zint_oracle_check, zint_truncate,
                             zmod_homology_exponents)
from adeltors.ratfunc import RatXY, x as rx, y as ry
from adeltors.ruleoracle import validate_rule_tables
from adeltors.worlds import PRIME_FIELD, VAL, Z_INT, Z_RAT, world_from_name


def test_zint_rule_table():
    assert validate_rule_tables("zint") >= 25


def test_val_rule_table():
    assert validate_rule_tables("valrank2") >= 35


def _count_local_forms(monkeypatch):
    calls = []
    local_form = oracle._local_form
    monkeypatch.setattr(oracle, "_local_form",
                        lambda A, p, N: calls.append((p, N)) or local_form(A, p, N))
    return calls


def test_stabilization_up_to_1024(monkeypatch):
    """One entry is run at every doubling up to N = 2^10, from one local
    form of its one differential, taken mod 2^1024."""
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(12))
    calls = _count_local_forms(monkeypatch)
    zint_oracle_check(C, homology(C), 2, Ns=(4, 8, 16, 32, 64, 128, 256, 512, 1024))
    assert calls == [(2, 1024)]


def _zint_objects():
    rng = random.Random(20261020)
    return [random_complex(rng, Z_INT(), primes=(2, 3), atoms=rng.randint(1, 4))
            for _ in range(40)]


def test_reading_at_the_top_n_caps_to_every_smaller_n():
    """The truncation read once mod p^16, capped at N, is
    zmod_homology_exponents of a fresh truncation mod p^N, for N = 1 ... 16."""
    for C in _zint_objects():
        for p in (2, 3):
            top = oracle._reading(*zint_truncate(C, p, 16), p, 16)
            for N in range(1, 17):
                assert oracle._cap(top, N) == zmod_homology_exponents(
                    *zint_truncate(C, p, N), p, N)


def test_one_local_form_per_differential_and_prime(monkeypatch):
    """zint_oracle_check at N = 4, 8 and 16 takes one local form of each
    non-empty differential per prime, mod p^16."""
    calls = _count_local_forms(monkeypatch)
    for C in _zint_objects()[:10]:
        calls.clear()
        zint_oracle_check(C, homology(C), 2, Ns=(4, 8, 16))
        zint_oracle_check(C, homology(C), 3, Ns=(4, 8, 16))
        assert calls == ([(2, 16)] * len(zint_truncate(C, 2, 16)[1])
                         + [(3, 16)] * len(zint_truncate(C, 3, 16)[1]))


def test_oracle_refuses_a_differential_whose_square_is_not_zero():
    """[Z --3--> Z --2--> Z], built unchecked: d o d = 6 is not 0 mod 2^16
    or mod 3^16, so the image of d_2 leaves the kernel of d_1."""
    Z = Z_INT()
    C = ChainComplex("zint", {n: [(Z, 1)] for n in (2, 1, 0)},
                     {(2, 0, 0): [[F(3)]], (1, 0, 0): [[F(2)]]}, check=False)
    for p in (2, 3):
        with pytest.raises(OracleMismatch, match="relation escapes the kernel lattice"):
            zint_oracle_check(C, GradedClasses(), p)


def test_oracle_rejects_wrong_claims(zsite):
    Z = Z_INT()
    C = ChainComplex.two_term(Z, F(4))
    with pytest.raises(OracleMismatch):
        zint_oracle_check(C, GradedClasses({0: ModuleClass.cyclic(Z, F(8))}), 2)
    with pytest.raises(OracleMismatch):
        zint_oracle_check(C, GradedClasses({0: ModuleClass.free(Z)}), 2)


def test_uct_shape_of_predictions():
    """The tor correction shows up one degree above the class."""
    Z = Z_INT()
    cls = GradedClasses({0: ModuleClass.quot("pruefer", 2)})
    pred = predicted_exponents(cls, 2, 8)
    assert pred == {1: [8]}   # pure torsion part, one degree up


def test_prime_field_strand_refused_at_its_own_prime():
    """F_p (x)^L Z/p^N is F_p in two degrees, not a free Z/p^N module, so
    a PrimeField(p) strand is refused mod p^N and dies mod q^N."""
    C = ChainComplex.unit(PRIME_FIELD(2))
    with pytest.raises(ValueError, match=r"PrimeField\(2\) .* mod 2\^4"):
        oracle_check(C, homology(C))
    C3 = ChainComplex.unit(PRIME_FIELD(3))
    assert zint_truncate(C3, 2, 4) == ({0: 0}, {})
    assert zint_oracle_check(C3, homology(C3), 2)


def test_oracle_imports_nothing_from_the_classifier():
    """The residue oracle is an independent path: oracle.py imports no
    kernel of linalg and nothing of homology."""
    with open(oracle.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert names and not {n for n in names if n.split(".")[-1] in ("linalg", "homology")}


def test_oracles_describe_valuation_worlds_by_name():
    """The oracles keep their own description of the valuation worlds
    (`_VAL_SLICES`, `_VAL_SYMS`, keyed by name): neither reads the
    classifier's completion and localization heights."""
    for module in (oracle, ruleoracle):
        with open(module.__file__) as fh:
            tree = ast.parse(fh.read())
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not read & {"comp_height", "loc_height"}, module.__name__


def _apply(D, v, M):
    return tuple(sum(a * b for a, b in zip(row, v)) % M for row in D)


def _random_zmod_complex(rng, M):
    """Ranks up to 2 in degrees 0..3; each column of d_(n+1) is drawn
    from an enumerated ker d_n, so d o d = 0 mod M.  Entries are shifted
    by -M, 0 or M, so that some are negative or not reduced."""
    ranks = {n: rng.randint(0, 2) for n in range(4)}
    mats = {}
    for n in range(1, 4):
        if not (ranks[n] and ranks[n - 1]):
            continue
        below = mats.get(n - 1)
        kernel = [v for v in product(range(M), repeat=ranks[n - 1])
                  if below is None or not any(_apply(below, v, M))]
        cols = [rng.choice(kernel) for _ in range(ranks[n])]
        mats[n] = [[col[i] + M * rng.randint(-1, 1) for col in cols]
                   for i in range(ranks[n - 1])]
    return ranks, mats


def _valuation(d, p):
    if d == 0:
        return float("inf")
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


def _brute_exponents(ranks, mats, p, N):
    """H_n = ker d_n / im d_(n+1) by enumeration: with H the sum of
    Z/p^e_i, log_p |H[p^k]| = sum_i min(e_i, k), so the number of
    e_i >= k is the step of that count from k - 1 to k."""
    M = p ** N
    out = {}
    for n, a in ranks.items():
        if not a:
            continue
        D, up = mats.get(n), mats.get(n + 1)
        kernel = [v for v in product(range(M), repeat=a) if D is None or not any(_apply(D, v, M))]
        image = ({_apply(up, w, M) for w in product(range(M), repeat=ranks[n + 1])}
                 if up else {(0,) * a})
        logs = [_valuation(sum(tuple(p ** k * c % M for c in v) in image for v in kernel)
                           // len(image), p) for k in range(N + 1)]
        at_least = [logs[k] - logs[k - 1] for k in range(1, N + 1)] + [0]
        exps = [k + 1 for k in range(N) for _ in range(at_least[k] - at_least[k + 1])]
        if exps:
            out[n] = exps
    return out


def test_zmod_exponents_match_enumeration():
    """zmod_homology_exponents against counting |H[p^k]| element by
    element, on tiny complexes over Z/p^N with p^N <= 9."""
    rng = random.Random(20261018)
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
    for _ in range(300):
        p, N = rng.choice(cases)
        ranks, mats = _random_zmod_complex(rng, p ** N)
        assert zmod_homology_exponents(ranks, mats, p, N) == _brute_exponents(ranks, mats, p, N)


def test_diagonalize_matches_smith_form_p_locally():
    """The oracle's local diagonal form against linalg.snf: at p = 2, 3
    and 5 and N = 1, 2, 9 and 20, the valuations of the local form over
    Z/p^N, with N for each diagonal place past them, are the p-adic
    valuations of snf's diagonal capped at N."""
    rng = random.Random(20261019)
    values = [0] * 6 + [1, -1, 2, -3, 4, 6, -9, 12, 3 ** 16, -(3 ** 16), 2 ** 10 * 3 ** 9, 5 ** 6]
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.choice(values) if rng.random() < 0.7 else rng.randint(-3 ** 16, 3 ** 16)
              for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            A[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in A:
                row[j] = 0
        D, _ = snf([[F(e) for e in row] for row in A], Z_INT())
        k = min(m, n)
        for p in (2, 3, 5):
            for N in (1, 2, 9, 20):
                vals = oracle._local_form(A, p, N)
                assert len(vals) <= k and all(v < N for v in vals)
                assert (sorted(vals + [N] * (k - len(vals)))
                        == sorted(min(_valuation(int(D[i][i]), p), N) for i in range(k)))


def test_val_tracks_on_models(vsite):
    V, x, y = vsite.base, rx(), ry()
    C = ChainComplex.two_term(V, x * y)
    assert val_track_reading(C, "x", 4) == {0: [4], 1: [4]}    # Cyclic(V, xy): N and N
    assert val_track_reading(C, "y", 4) == {0: [1], 1: [1]}    # y-exponent is 1
    val_oracle_check(C, homology(C))
    D = ChainComplex.single(V, {1: 2, 0: 3}, {1: [[x ** 2, 0 * x], [0 * x, x ** 6], [0 * x, y]]})
    assert val_track_reading(D, "x", 4) == {0: [2, 4, 4], 1: [2, 4]}   # x^6 caps at N
    assert val_track_reading(D, "y", 4) == {0: [4]}        # x^a are units there: one R
    val_oracle_check(D, homology(D))


def test_val_oracle_rejects_wrong_claims(vsite):
    """H_0 of [V --xy--> V] is Cyclic(V, xy): Free(V) and Cyclic(V, x)
    miss on the x-residue, Cyclic(V, xy^2) only on the y-residue."""
    V = vsite.base
    C = ChainComplex.two_term(V, rx() * ry())
    messages = []
    for wrong in (ModuleClass.free(V), ModuleClass.cyclic(V, rx()),
                  ModuleClass.cyclic(V, rx() * ry() ** 2)):
        with pytest.raises(OracleMismatch) as err:
            val_oracle_check(C, GradedClasses({0: wrong}))
        messages.append(str(err.value).split(" N=")[0])
    assert messages == ["x-residue", "x-residue", "y-residue"]


def _diagonal(W, gens):
    """The sum of the [W --g--> W], g in gens, in degrees 1 and 0."""
    zero = RatXY.const(0)
    return ChainComplex.single(W, {1: len(gens), 0: len(gens)},
                               {1: [[g if i == j else zero for j, g in enumerate(gens)]
                                    for i in range(len(gens))]})


def _cyclic_sum(W, gens):
    out = ModuleClass()
    for g in gens:
        out = out + ModuleClass.cyclic(W, g)
    return GradedClasses({0: out})


def test_val_oracle_tells_exponent_splits_apart():
    """Wrong claims of the same length on each track at N = 2, 4 and 8:
    the exponent reading rejects each, naming its track; V/xy claimed as
    V/x (+) V/y is still rejected on the x-track."""
    V, Vp, x, y = VAL("V"), VAL("Vp"), rx(), ry()
    cases = [(ChainComplex.two_term(V, x ** 2), V, [x, x], "x"),
             (ChainComplex.two_term(Vp, y ** 2), Vp, [y, y], "y"),
             (_diagonal(V, [x ** 3, x ** 3]), V, [x ** 4, x ** 2], "x"),
             (_diagonal(V, [x ** 9, x ** 9]), V, [x ** 10, x ** 8], "x"),
             (ChainComplex.two_term(V, x * y), V, [x, y], "x")]
    for C, W, claim, track in cases:
        val_oracle_check(C, homology(C))
        with pytest.raises(OracleMismatch, match=rf"^{track}-residue N="):
            val_oracle_check(C, _cyclic_sum(W, claim))


def test_val_oracle_rejects_partition_pairs_of_equal_length():
    """Pairs of exponent multisets whose capped sums agree at N = 2, 4 and
    8, so that their dimensions agree on every N the oracle once read:
    V/x^a sums on the x-track and Vp/y^b sums on the y-track, each
    accepted for itself and rejected as the other."""
    def length(parts, N):
        return sum(min(e, N) for e in parts)
    parts = [p for k in (1, 2, 3) for p in combinations_with_replacement(range(1, 11), k)]
    pairs = [(p, q) for p in parts for q in parts
             if p != q and all(length(p, N) == length(q, N) for N in (2, 4, 8))]
    assert len(pairs) > 100
    rng = random.Random(20261021)
    for (p, q), (W, t) in zip(rng.sample(pairs, 12), [(VAL("V"), rx()), (VAL("Vp"), ry())] * 6):
        C = _diagonal(W, [t ** e for e in p])
        val_oracle_check(C, _cyclic_sum(W, [t ** e for e in p]))
        with pytest.raises(OracleMismatch):
            val_oracle_check(C, _cyclic_sum(W, [t ** e for e in q]))


def _val_objects(vsite):
    """Seeded random V-complexes, and two whose entries have non-monomial
    denominators."""
    V, x, y = vsite.base, rx(), ry()
    rng = random.Random(20260917)
    out = [random_complex(rng, V, primes=(2, 3), atoms=4) for _ in range(12)]
    u = (1 + x).inv()
    out.append(ChainComplex.two_term(V, x * u))
    out.append(ChainComplex.single(V, {1: 2, 0: 2},
                                   {1: [[x * u, y], [y * (1 - x).inv(), x * u]]}))
    return out


def _mixed_objects(vsite, vcube):
    """Cube vertices of the valrank2 library objects: strands over the
    completed and localized worlds, some of which neither track sees."""
    out = []
    for _, X in library(vsite):
        out.extend(vcube.tensor(X).values.values())
    return out


def _entries(C):
    return [e for Mb in C.blocks.values() for row in Mb for e in row if not e.is_zero()]


def test_x_window_shift_identity(vsite, vcube):
    """The x^(a+k) coefficient of e*x^a is the x^k coefficient of e: one
    window [1-N, N) of e, shifted by a and clipped to [0, N), is the
    window [0, N) of e*x^a for every a < N."""
    x = rx()
    extra = [(1 + x).inv(), (1 + ry()) / (1 - x * ry()), x ** -2 + 3 * x / (2 - x * x)]
    entries = {e for C in _val_objects(vsite) + _mixed_objects(vsite, vcube)
               for e in _entries(C)} | set(extra)
    for e in entries:
        for N in (2, 4, 8):
            wide = oracle._x_window(e, 1 - N, N)
            for a in range(N):
                shifted = {k + a: c for k, c in wide.items() if 0 <= k + a < N}
                assert oracle._x_window(e * RatXY.monomial(a, 0), 0, N) == shifted


def test_series_expansions_against_closed_forms():
    """Expansions checked against series known in closed form.  x-windows:
    a denominator 1 + x, one divisible by x^3, 1/(1 - x) on windows far
    above exponent 0, a multiple of y and zero; a y-pole is refused.
    y-series: a denominator spread over two y-slices, with and without
    a numerator of y-valuation 2, and a numerator spread over three
    y-slices above a denominator of y-valuation 1."""
    x, y = rx(), ry()
    N = 8
    assert oracle._x_window((1 + x).inv(), 1 - N, N) == {a: F((-1) ** a) for a in range(N)}
    assert oracle._x_window((x ** 3 * (1 - x)).inv(), 1 - N, N) == {
        a: F(1) for a in range(-3, N)}
    for a0 in range(21):
        assert oracle._x_window((1 - x).inv(), a0, a0 + 5) == {
            a: F(1) for a in range(a0, a0 + 5)}
    assert oracle._x_window(y / (1 - x), 1 - N, N) == {}
    assert oracle._x_window(RatXY.const(0), 1 - N, N) == {}
    with pytest.raises(OracleMismatch, match="y-pole"):
        oracle._x_window((1 + x) / y, 1 - N, N)
    assert oracle._y_series((1 + y).inv(), 4) == {b: (-1) ** b for b in range(4)}
    assert oracle._y_series(y * y / (1 + y), 4) == {b: (-1) ** b for b in range(2, 6)}
    assert oracle._y_series((1 + y + y * y) / (y * (1 - x)), 5) == {
        b: (1 - x).inv() for b in (-1, 0, 1)}


def test_x_window_matches_sympy_series(vsite):
    """On the entries of the seeded V-complexes, the x-window [1-N, N)
    is sympy's x-Laurent series of e at y = 0: every such entry has
    its y^0 slice in its denominator, so that is its y^0 coefficient."""
    sympy = pytest.importorskip("sympy")
    X, Y = sympy.symbols("x y")

    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * X ** a * Y ** b
                   for (a, b), c in p.items())
    N = 8
    entries = {e for C in _val_objects(vsite) for e in _entries(C)}
    assert len(entries) > 15
    for e in entries:
        f = sympy.cancel((poly(e.num) / poly(e.den)).subs(Y, 0))
        s = sympy.series(f, X, 0, N).removeO() if f != 0 else sympy.Integer(0)
        want = {a: F(int(c.p), int(c.q)) for a in range(1 - N, N)
                if (c := s.coeff(X, a)) != 0}
        assert oracle._x_window(e, 1 - N, N) == want, e


def test_x_track_refuses_a_y_pole_only_where_it_reads_one(vsite):
    """1/y from V to V is no map of V-modules: both tracks, which read
    that block, refuse it naming the entry; so does the x-track for
    x^-9, whose terms from x^-7 to x^7 are all 0.  From V to K 1/y is a
    map, and no track reads an entry whose target strand it drops."""
    V, K = vsite.base, world_from_name("K")
    e, f = ry().inv(), rx() ** -9
    for g, track, message in ((e, "x", f"entry {e} has a y-pole"),
                              (e, "y", f"entry {e} has a y-pole"),
                              (f, "x", f"entry {f} has an x-pole")):
        bad = ChainComplex(V.backend, {1: [(V, 1)], 0: [(V, 1)]}, {(1, 0, 0): [[g]]},
                           check=False)
        with pytest.raises(OracleMismatch, match=re.escape(message)):
            val_track_reading(bad, track, 8)
    good = ChainComplex(V.backend, {1: [(V, 1)], 0: [(K, 1)]}, {(1, 0, 0): [[e]]})
    assert val_track_reading(good, "x", 2) == {1: [2]}
    assert val_track_reading(good, "y", 2) == {1: [2]}


def _column_by_column(C, N, bases, track):
    """Reference matrices: column (i, k, t) of degree n is the image of
    x^t (x-track) or y^t (y-track) on generator k of strand i, expanded
    afresh for every column."""
    mats = {}
    for n, basis in bases.items():
        if not basis or not bases.get(n - 1):
            continue
        rows = {key: r for r, key in enumerate(bases[n - 1])}
        A = [[0] * len(basis) for _ in bases[n - 1]]
        for col, (i, k, t) in enumerate(basis):
            for (m, bi, j), Mb in C.blocks.items():
                if (m, bi) != (n, i):
                    continue
                for row, entries in enumerate(Mb):
                    e = entries[k]
                    if e.is_zero():
                        continue
                    if track == "x":
                        image = oracle._x_window(e * RatXY.monomial(t, 0), 0, N)
                    else:
                        image = {t + s: c for s, c in oracle._y_series(e, N + 1).items()}
                    for u, c in image.items():
                        if (j, row, u) in rows:
                            A[rows[(j, row, u)]][col] += c
        mats[n] = A
    return mats


def _n_fold_dims(C, N, track):
    """dim H_* of a track by its definition: a generator of a strand the
    track keeps gives N coordinates x^t (or y^t), every column is built
    by _column_by_column, and ranks come from linalg.snf over Q (x-track)
    or over K (y-track: the rank over Q(x) of a matrix over Q(x))."""
    bases = {n: [(i, k, t) for i, (w, r) in enumerate(C.strand_list(n))
                 if oracle._keeps(w.name, track) for k in range(r) for t in range(N)]
             for n in C.degrees()}
    mats = _column_by_column(C, N, bases, track)
    field, lift = (Z_RAT(), F) if track == "x" else (VAL("K"), RatXY.const)
    ranks = {}
    for n, A in mats.items():
        D, _ = snf([[e if isinstance(e, RatXY) else lift(e) for e in row] for row in A], field)
        ranks[n] = sum(D[i][i] != 0 for i in range(min(len(D), len(D[0]) if D else 0)))
    dims = {n: len(b) - ranks.get(n, 0) - ranks.get(n + 1, 0) for n, b in bases.items()}
    return {n: d for n, d in dims.items() if d}, len(mats)


def test_capped_exponents_sum_to_the_n_fold_track_dims(vsite, vcube):
    """A track read once at N = 8, capped at N and summed, is the
    dimension of the track's N-fold matrices, for N = 1, 2 and 4."""
    built = 0
    for C in _val_objects(vsite) + _mixed_objects(vsite, vcube):
        has_xcomplete = any(w.name in ("VhatM", "VhatMInv") for w in C.worlds)
        for track in ("x",) if has_xcomplete else ("x", "y"):
            top = val_track_reading(C, track, 8)
            for N in (1, 2, 4):
                dims, mats = _n_fold_dims(C, N, track)
                assert {n: sum(v) for n, v in oracle._cap(top, N).items()} == dims
                built += mats
    assert built > 100


def test_val_reading_at_the_top_n_caps_to_every_smaller_n(vsite, vcube, monkeypatch):
    """A track read once at N = 9, capped at N, is a fresh reading at N,
    for N = 1 ... 9.  val_oracle_check reads each track once, at N = 8
    unless the claim names an exponent of 8 or more on it."""
    rng = random.Random(20261019)
    complexes = [random_complex(rng, vsite.base, primes=(2, 3), atoms=rng.randint(1, 4))
                 for _ in range(60)] + _mixed_objects(vsite, vcube)
    for C in complexes:
        has_xcomplete = any(w.name in ("VhatM", "VhatMInv") for w in C.worlds)
        for track in ("x",) if has_xcomplete else ("x", "y"):
            top = val_track_reading(C, track, 9)
            for N in range(1, 10):
                assert oracle._cap(top, N) == val_track_reading(C, track, N)
    reads = []
    reading = oracle.val_track_reading
    monkeypatch.setattr(oracle, "val_track_reading",
                        lambda C, track, N: reads.append((track, N)) or reading(C, track, N))
    for C in complexes[:20]:
        reads.clear()
        val_oracle_check(C, homology(C))
        assert reads == [("x", 8), ("y", 8)]
    reads.clear()
    C = _diagonal(vsite.base, [rx() ** 9, rx() ** 9])
    val_oracle_check(C, homology(C))
    assert reads == [("x", 10), ("y", 8)]


def test_each_entry_expanded_once_per_track_call(vsite, monkeypatch):
    """One _x_window (x-track) and one _y_series (y-track) per
    distinct non-zero entry; on these V-only objects every entry lies in
    a block that both tracks see."""
    calls = []
    for name in ("_x_window", "_y_series"):
        def counted(e, *args, _f=getattr(oracle, name)):
            calls.append(e)
            return _f(e, *args)
        monkeypatch.setattr(oracle, name, counted)
    repeated = 0
    for C in _val_objects(vsite):
        entries = _entries(C)
        repeated += len(entries) > len(set(entries))
        for track in ("x", "y"):
            calls.clear()
            val_track_reading(C, track, 4)
            assert len(calls) == len(set(calls)) == len(set(entries))
    assert repeated       # some entry sits at two positions


def test_series_form_matches_smith_form_over_v():
    """The series local form against linalg.snf over V, on seeded random
    V-matrices with non-monomial entries, at N = 1, 3 and 8.  On the
    x-track the orders, padded with N, are the x-exponents of snf's
    diagonal capped at N, a diagonal entry of positive y-exponent (or 0)
    reading as N; on the y-track they are its y-exponents capped at N."""
    rng = random.Random(20261021)
    x, y, zero = rx(), ry(), RatXY.const(0)
    values = [zero] * 6 + [RatXY.const(1), RatXY.const(-2), x, x * x, y, x * y, y / x, 1 + y,
                           (1 + x).inv(), x ** 3 / (1 - x), y / (1 + x * y), x * x + y]
    tracks = (("x", oracle._x_entry, F(0)), ("y", oracle._y_entry, zero))
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.choice(values) * rng.choice(values) for _ in range(n)] for _ in range(m)]
        D, _ = snf(A, VAL("V"))
        diag = [D[i][i].val() for i in range(min(m, n))]
        for N in (1, 3, 8):
            for track, read, fzero in tracks:
                orders = oracle._series_form(
                    [[{} if e.is_zero() else read(e, N) for e in row] for row in A], N, fzero)
                assert all(v < N for v in orders)
                want = [N if v is None else min(v[0], N) if track == "y"
                        else min(v[1], N) if v[0] == 0 else N for v in diag]
                assert sorted(orders + [N] * (len(diag) - len(orders))) == sorted(want)
