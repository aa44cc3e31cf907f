"""Rule-table consistency: every registered mixed-world identification
must stabilize under the residue-truncation oracle.  The integer side is
pushed to N = 2^10 as the outer bound; the valuation side doubles its
window twice."""

import ast
import random
from fractions import Fraction as F
from itertools import product

import pytest

from adeltors import oracle, ruleoracle
from adeltors.classes import GradedClasses, ModuleClass
from adeltors.complexes import ChainComplex
from adeltors.homology import homology
from adeltors.library import library, random_complex
from adeltors.linalg import snf
from adeltors.oracle import (OracleMismatch, oracle_check, predicted_exponents,
                             val_oracle_check, x_track_dims, y_track_dims,
                             zint_oracle_check, zint_truncate,
                             zmod_homology_exponents)
from adeltors.ratfunc import RatXY, x as rx, y as ry
from adeltors.ruleoracle import validate_rule_tables
from adeltors.worlds import PRIME_FIELD, Z_INT


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
    V = vsite.base
    C = ChainComplex.two_term(V, rx() * ry())
    assert x_track_dims(C, 4) == {0: 4, 1: 4}    # Cyclic(V, xy): N and N
    assert y_track_dims(C, 4) == {0: 1, 1: 1}    # y-exponent is 1
    val_oracle_check(C, homology(C))


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
            wide = oracle.laurent_window(e, 0, 0, 1 - N, N)
            for a in range(N):
                shifted = {(b, k + a): c for (b, k), c in wide.items() if 0 <= k + a < N}
                assert oracle.laurent_window(e * RatXY.monomial(a, 0), 0, 0, 0, N) == shifted


def test_laurent_window_against_closed_forms():
    """Window expansions checked against series known in closed form: a
    denominator 1 + x, one divisible by x^3, one spread over two
    y-slices, a numerator spread over three y-slices above a denominator
    of y-valuation 1, and zero."""
    x, y = rx(), ry()
    N = 8
    assert oracle.laurent_window((1 + x).inv(), 0, 0, 1 - N, N) == {
        (0, a): F((-1) ** a) for a in range(N)}
    assert oracle.laurent_window((x ** 3 * (1 - x)).inv(), 0, 0, 1 - N, N) == {
        (0, a): F(1) for a in range(-3, N)}
    assert oracle.laurent_window((1 + y).inv(), 0, 3, 1 - N, N) == {
        (b, 0): F((-1) ** b) for b in range(4)}
    assert oracle.laurent_window((1 + y + y * y) / (y * (1 - x)), -1, 1, 1 - N, N) == {
        (b, a): F(1) for b in (-1, 0, 1) for a in range(N)}
    assert oracle.laurent_window(RatXY.const(0), 0, 3, 1 - N, N) == {}


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
                        image = {a: c for (_, a), c in oracle.laurent_window(
                            e * RatXY.monomial(t, 0), 0, 0, 0, N).items()}
                    else:
                        image = {t + s: c for s, c in oracle._y_series(e, N + 1).items()}
                    for u, c in image.items():
                        if (j, row, u) in rows:
                            A[rows[(j, row, u)]][col] += c
        mats[n] = A
    return mats


def test_track_matrices_match_column_by_column(vsite, vcube, monkeypatch):
    """Expanding each entry once gives the same matrices as expanding it
    again for every column it meets."""
    seen = []
    dims_from = oracle._dims_from

    def capture(bases, mats):
        seen.append((bases, mats))
        return dims_from(bases, mats)
    monkeypatch.setattr(oracle, "_dims_from", capture)
    complexes = _val_objects(vsite) + _mixed_objects(vsite, vcube)
    built = 0
    for C in complexes:
        has_xcomplete = any(w.name in ("VhatM", "VhatMInv") for w in C.worlds)
        for N in (2, 4):
            for track, dims in (("x", x_track_dims), ("y", y_track_dims)):
                if track == "y" and has_xcomplete:
                    continue
                seen.clear()
                dims(C, N)
                (bases, mats), = seen
                assert mats == _column_by_column(C, N, bases, track)
                built += len(mats)
    assert built > 100


def test_tracks_built_at_the_top_n_clip_to_every_smaller_n(vsite, vcube, monkeypatch):
    """A track built once at N = 9 and cut to the coordinates t < N is the
    track at N, and gives x_track_dims / y_track_dims, for N = 1 ... 9;
    val_oracle_check builds each track it reads once."""
    rng = random.Random(20261019)
    complexes = [random_complex(rng, vsite.base, primes=(2, 3), atoms=rng.randint(1, 4))
                 for _ in range(60)] + _mixed_objects(vsite, vcube)
    tracks = [(oracle._x_track, x_track_dims), (oracle._y_track, y_track_dims)]
    for C in complexes:
        has_xcomplete = any(w.name in ("VhatM", "VhatMInv") for w in C.worlds)
        for build, dims in tracks[:1] if has_xcomplete else tracks:
            top = build(C, 9)
            for N in range(1, 10):
                clipped = oracle._clip(*top, N)
                assert clipped == build(C, N)
                assert oracle._dims_from(*clipped) == dims(C, N)
    builds = []
    track_matrices = oracle._track_matrices
    monkeypatch.setattr(oracle, "_track_matrices",
                        lambda C, N, *rest: builds.append(N) or track_matrices(C, N, *rest))
    for C in complexes[:20]:
        builds.clear()
        val_oracle_check(C, homology(C))
        assert builds == [8, 8]


def test_each_entry_expanded_once_per_track_call(vsite, monkeypatch):
    """One laurent_window (x-track) and one _y_series (y-track) per
    distinct non-zero entry; on these V-only objects every entry lies in
    a block that both tracks see."""
    calls = []
    for name in ("laurent_window", "_y_series"):
        def counted(e, *args, _f=getattr(oracle, name)):
            calls.append(e)
            return _f(e, *args)
        monkeypatch.setattr(oracle, name, counted)
    repeated = 0
    for C in _val_objects(vsite):
        entries = _entries(C)
        repeated += len(entries) > len(set(entries))
        for dims in (x_track_dims, y_track_dims):
            calls.clear()
            dims(C, 4)
            assert len(calls) == len(set(calls)) == len(set(entries))
    assert repeated       # some entry sits at two positions


def _full_rank(rng, rows, r, pick):
    """A rows x r matrix of rank r: identity rows among random sparse ones."""
    M = [[pick(rng) for _ in range(r)] for _ in range(rows - r)]
    M += [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rng.shuffle(M)
    return M


def _known_rank(rng, pick):
    """A sparse matrix of known rank r = P Q, P and Q of full rank r,
    padded with zero rows and columns; returns (M, r)."""
    r = rng.randint(0, 4)
    m, n = r + rng.randint(0, 3), r + rng.randint(0, 3)
    P = _full_rank(rng, m, r, pick)
    Qt = _full_rank(rng, n, r, pick)
    M = [[sum((P[i][t] * Qt[j][t] for t in range(r)), 0 * pick(rng)) for j in range(n)]
         for i in range(m)]
    for _ in range(rng.randint(0, 2)):
        M.insert(rng.randint(0, len(M)), [0 * pick(rng)] * n)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, n)
        M = [row[:at] + [0 * pick(rng)] + row[at:] for row in M]
        n += 1
    return M, r


def test_rank_kernels_on_known_ranks():
    rng = random.Random(20260918)
    x = rx()
    q_values = [F(0)] * 3 + [F(1), F(-1), F(2), F(1, 3)]
    x_values = [RatXY.const(0)] * 3 + [RatXY.const(1), x, 1 - x, (1 + x).inv(), x * x + 2]
    for rank_fn, values, trials in ((oracle._mat_rank, q_values, 300),
                                    (oracle._mat_rank, x_values, 60)):
        for _ in range(trials):
            M, r = _known_rank(rng, lambda g: g.choice(values))
            Mt = [list(col) for col in zip(*M)]
            assert rank_fn(M) == r
            if Mt:
                assert rank_fn(Mt) == r
