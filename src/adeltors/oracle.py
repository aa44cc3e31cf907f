"""Residue-truncation oracles.

The mixed-world homology engine leans on a finite table of fracture
pullbacks, cross-atom quotients and completion identifications.  Every
table entry is validated here along an independent computational path:

  * integer backend: reduce a complex mod p^N.  Worlds with p invertible
    die, PrimeField(p) is refused, all others become Z/p^N, and H_n of
    the truncation must match the claimed classes through the
    universal-coefficient shape
    H_n(C/p^N) = H_n(C)/p^N (+) (p^N-torsion of H_{n-1}(C)), for
    doubling N until two successive checks agree.

  * valuation backend: realize worlds inside k((x))((y)) and compare
    homology dimensions on two residue tracks against per-piece
    predictions, for doubling N.  The x-track takes C (x) V/x^N over QQ:
    it expands an entry's rational function on the Laurent window
    [1-N, N) of its y^0 slice, reading only the entry's num and den
    polynomials.  The y-track takes (C (x) V/y^N)[1/x] over QQ(x): it
    expands an entry as a y-adic series with k(x)-coefficients.

Each track build expands every distinct non-zero entry once;
val_oracle_check builds each track once, at its largest N, and ranks
the clipped matrices for every N.  Nothing here shares a kernel with the
classifier or with linalg: the integer side runs its own diagonal form
on plain ints, the x-track eliminates over QQ with Fractions, and the
y-track eliminates over QQ(x) with RatXY arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classes import GradedClasses, PRUEFER_X, PRUEFER_Y, QUOT_KV
from .complexes import ChainComplex
from .ratfunc import RatXY, _y_parts
from .worlds import World, world_from_name


class OracleMismatch(AssertionError):
    pass


# -- integer side ---------------------------------------------------------------------


def zint_truncate(C: ChainComplex, p: int, N: int):
    """Integer matrices of C mod p^N: (ranks per degree, diff per degree).

    Worlds with p invertible die.  A PrimeField(p) strand is refused:
    F_p (x)^L Z/p^N is F_p in two degrees, not a free Z/p^N module."""
    M = p ** N
    ranks: dict[int, int] = {}
    index: dict[tuple[int, int], int] = {}
    for n in C.degrees():
        at = 0
        for i, (w, r) in enumerate(C.strand_list(n)):
            if w.kind == "fp" and w.char == p:
                raise ValueError(f"{w} strand has no free truncation mod {p}^{N}")
            if w.kind == "z" and p not in w.inv:
                index[(n, i)] = at
                at += r
        ranks[n] = at
    mats: dict[int, list] = {}
    for n in sorted(ranks):
        if ranks.get(n, 0) and ranks.get(n - 1, 0):
            A = [[0] * ranks[n] for _ in range(ranks[n - 1])]
            mats[n] = A
    for (n, i, j), Mb in C.blocks.items():
        if (n, i) not in index or (n - 1, j) not in index:
            continue
        off_i, off_j = index[(n, i)], index[(n - 1, j)]
        for a in range(len(Mb)):
            for b in range(len(Mb[0])):
                e = Mb[a][b]
                num, den = e.numerator, e.denominator
                inv = pow(den % M, -1, M)
                mats[n][off_j + a][off_i + b] = (num * inv) % M
    return ranks, mats


def _diagonalize(A):
    """Diagonal form of a non-empty int matrix: (diag, Vt) with
    A = U diag(diag) Vt for unimodular U and Vt, diag its non-zero
    entries.  Only Vt is built.  The entries need not divide one
    another: every diagonal form reached by unimodular operations has
    the same p-local invariants, which is all the oracle reads."""
    D = [list(row) for row in A]
    m, n = len(D), len(D[0])
    Vt = [[int(i == j) for j in range(n)] for i in range(n)]
    diag = []
    for pos in range(min(m, n)):
        while True:
            nonzero = [(abs(e), i, j) for i in range(pos, m)
                       for j, e in enumerate(D[i][pos:], pos) if e]
            if not nonzero:
                return diag, Vt
            _, pi, pj = min(nonzero)
            D[pos], D[pi] = D[pi], D[pos]
            for row in D[pos:]:
                row[pos], row[pj] = row[pj], row[pos]
            Vt[pos], Vt[pj] = Vt[pj], Vt[pos]
            prow = D[pos]
            piv = prow[pos]
            for row in D[pos + 1:]:
                q = row[pos] // piv
                if q:
                    for t in range(pos, n):
                        row[t] -= q * prow[t]
            # col_j -= q col_pos, so Vt gains row_pos += q row_j
            for j in range(pos + 1, n):
                q = prow[j] // piv
                if q:
                    for row in D[pos:]:
                        row[j] -= q * row[pos]
                    Vt[pos] = [u + q * v for u, v in zip(Vt[pos], Vt[j])]
            if not (any(row[pos] for row in D[pos + 1:]) or any(prow[pos + 1:])):
                break
        diag.append(piv)
    return diag, Vt


def zmod_homology_exponents(ranks, mats, p: int, N: int) -> dict[int, list[int]]:
    """H_n of a free Z/p^N complex as sorted p-exponent lists."""
    M = p ** N
    out: dict[int, list[int]] = {}
    for n, a in ranks.items():
        if a == 0:
            continue
        D_n = mats.get(n)
        D_up = mats.get(n + 1)
        if D_n is not None:
            diag, Vt = _diagonalize(D_n)
            mults = [M // math.gcd(d, M) for d in diag] + [1] * (a - len(diag))
        else:
            mults = [1] * a
            Vt = [[int(i == j) for j in range(a)] for i in range(a)]
        rel_cols = [list(col) for col in zip(*D_up)] if D_up is not None else []
        rel_cols += [[M if i == j else 0 for i in range(a)] for j in range(a)]
        # the kernel lattice has basis K = Vt^{-1} diag(m), so a relation
        # in that basis is K^{-1} rel = diag(1/m) Vt rel
        R = []
        for Vt_i, m in zip(Vt, mults):
            row = []
            for col in rel_cols:
                v, r = divmod(sum(u * c for u, c in zip(Vt_i, col)), m)
                if r:
                    raise OracleMismatch("relation escapes the kernel lattice")
                row.append(v)
            R.append(row)
        exps = []
        for d in _diagonalize(R)[0]:
            e, d = 0, math.gcd(d, M)
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exps.append(e)
        out[n] = sorted(exps)
    return {n: v for n, v in out.items() if v}


def predicted_exponents(classes: GradedClasses, p: int, N: int) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    degs = set(classes.data)
    for n in set(list(degs) + [m + 1 for m in degs]):
        mod, _ = classes[n].zint_trunc(p, N)
        _, tor = classes[n - 1].zint_trunc(p, N)
        exps = sorted(mod + tor)
        if exps:
            out[n] = exps
    return out


def zint_oracle_check(C: ChainComplex, classes: GradedClasses, p: int,
                      Ns=(4, 8, 16)) -> bool:
    """Claimed classes match the mod-p^N homology for each N; doubling N
    keeps agreeing (stabilization), else OracleMismatch."""
    for N in Ns:
        ranks, mats = zint_truncate(C, p, N)
        got = zmod_homology_exponents(ranks, mats, p, N)
        want = predicted_exponents(classes, p, N)
        if got != want:
            raise OracleMismatch(
                f"mod {p}^{N}: truncated homology {got} != predicted {want}")
    return True


# -- valuation side -------------------------------------------------------------------

# slice structure: (y-range kind, x-type at b<0, b=0, b>0)
_VAL_SLICES = {
    "V": ("nonneg", None, "O", "R"),
    "Vp": ("nonneg", None, "R", "R"),
    "VhatPFull": ("nonneg", None, "O", "R"),
    "VhatP": ("nonneg", None, "R", "R"),
    "K": ("all", "R", "R", "R"),
    "VhatPInv": ("all", "R", "R", "R"),
    "VhatM": ("zero", None, "O", None),
    "VhatMInv": ("zero", None, "R", None),
}


class _XWin:
    """Truncated x-Laurent series: coefficients on [lo, hi)."""

    __slots__ = ("lo", "hi", "c")

    def __init__(self, lo, hi, c=None):
        self.lo, self.hi = lo, hi
        self.c = {k: v for k, v in (c or {}).items() if lo <= k < hi and v}

    def mul(self, other: "_XWin") -> "_XWin":
        out = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                if self.lo <= k < self.hi:
                    out[k] = out.get(k, Fraction(0)) + v1 * v2
        return _XWin(self.lo, self.hi, out)

    def sub(self, other: "_XWin") -> "_XWin":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) - v
        return _XWin(self.lo, self.hi, out)

    def add(self, other: "_XWin") -> "_XWin":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _XWin(self.lo, self.hi, out)


def _xwin_inverse_poly(p: dict, lo, hi) -> _XWin:
    """Window expansion of 1/p for a nonzero polynomial p of x."""
    v = min(p)
    shifted = {a - v: c for a, c in p.items()}
    lead = shifted[0]
    coeffs: dict[int, Fraction] = {}
    state = {0: Fraction(1)}
    for k in range(hi - lo + abs(v) + 1):
        c = state.get(0, Fraction(0)) / lead
        coeffs[k - v] = c
        for dk, dv in shifted.items():
            state[dk] = state.get(dk, Fraction(0)) - c * dv
        state = {k2 - 1: vv for k2, vv in state.items() if k2 >= 1 and vv}
    return _XWin(lo, hi, coeffs)


def laurent_window(f: RatXY, bmin: int, bmax: int, amin: int, amax: int):
    """Exact Laurent coefficients of f in k((x))((y)) on the window."""
    if f.is_zero():
        return {}
    num_sl = _y_parts(f.num)
    den_sl = _y_parts(f.den)
    vy_n = min(num_sl)
    vy_d = min(den_sl)
    shift = vy_n - vy_d
    terms = max(bmax - min(bmin, shift) + 2, 2)
    pad = 8 + sum(abs(a) for a in
                  [min((a for (a, b) in f.num), default=0),
                   max((a for (a, b) in f.num), default=0),
                   min((a for (a, b) in f.den), default=0),
                   max((a for (a, b) in f.den), default=0)])
    lo, hi = amin - pad, amax + pad
    d0 = den_sl[vy_d]
    inv0 = _xwin_inverse_poly(d0, lo, hi)
    # u_b = (D_{vy_d + b} / d0) for b >= 1; series inverse g of 1 + sum u_b y^b
    u = {b: _XWin(lo, hi, den_sl.get(vy_d + b)).mul(inv0)
         for b in range(1, terms)}
    g: list[_XWin] = [_XWin(lo, hi, {0: Fraction(1)})]
    for k in range(1, terms):
        acc = _XWin(lo, hi)
        for j in range(1, k + 1):
            if j in u:
                acc = acc.sub(u[j].mul(g[k - j]))
        g.append(acc)
    out: dict[tuple[int, int], Fraction] = {}
    for b in range(bmin, bmax + 1):
        k = b - shift
        if k < 0 or k >= terms:
            continue
        acc = _XWin(lo, hi)
        for j in range(0, k + 1):
            nslice = num_sl.get(vy_n + j, None)
            if nslice:
                acc = acc.add(_XWin(lo, hi, nslice).mul(inv0).mul(g[k - j]))
        for a, c in acc.c.items():
            if amin <= a < amax and c:
                out[(b, a)] = c
    return out


def _x_track_basis(w: World, N: int):
    """The x-adic residue W/x^N W: only the O-type slice survives (x is
    invertible on R-type slices and the y-tail lies in every x-power)."""
    _, neg, zer, pos = _VAL_SLICES[w.name]
    return list(range(N)) if zer == "O" else []


def _y_loc_basis(w: World, N: int):
    """(W/y^N W)[1/x] as a k(x)-space: the surviving y-slices."""
    kind, neg, zer, pos = _VAL_SLICES[w.name]
    if kind == "zero":
        raise OracleMismatch("y-residue track needs y-adic-family strands only")
    if kind == "all":
        return []          # y already invertible
    return list(range(N))  # slices 0..N-1, each a copy of k(x) after inverting x


def _track_matrices(C: ChainComplex, N: int, basis, expand, zero):
    """Bases and differential matrices of C on one residue track.

    basis(w, N) lists the coordinates t a generator of world w keeps;
    expand(e) gives {s: c}, an entry e sending coordinate t of its
    source generator to c times coordinate t + s of its target.  Each
    distinct non-zero entry is expanded once per call."""
    bases = {n: [(i, k, t) for i, (w, r) in enumerate(C.strand_list(n))
                 for k in range(r) for t in basis(w, N)]
             for n in C.degrees()}
    expanded: dict = {}
    mats: dict[int, list] = {}
    for n in C.degrees():
        if not bases[n] or not bases.get(n - 1):
            continue
        tgt_index = {key: pos for pos, key in enumerate(bases[n - 1])}
        A = [[zero] * len(bases[n]) for _ in range(len(bases[n - 1]))]
        for (m, i, j), Mb in C.blocks.items():
            if m != n:
                continue
            for col, (si, sk, t) in enumerate(bases[n]):
                if si != i:
                    continue
                for row_k, row in enumerate(Mb):
                    e = row[sk]
                    if e.is_zero():
                        continue
                    series = expanded.get(e)
                    if series is None:
                        series = expanded[e] = expand(e)
                    for s, c in series.items():
                        pos = tgt_index.get((j, row_k, t + s))
                        if pos is not None:
                            A[pos][col] += c
        mats[n] = A
    return bases, mats


def _x_track(C: ChainComplex, N: int):
    """Bases and matrices of C (x) V/x^N over QQ.  An entry e sends x^t
    to e*x^t, whose x^(t+k) coefficient is the x^k coefficient of e, so
    one window [1-N, N) of e serves every column t in [0, N)."""
    def expand(e):
        return {k: c for (_, k), c in laurent_window(e, 0, 0, 1 - N, N).items()}
    return _track_matrices(C, N, _x_track_basis, expand, Fraction(0))


def _y_track(C: ChainComplex, N: int):
    """Bases and matrices of (C (x) V/y^N)[1/x] over QQ(x): an entry's
    y-adic expansion, with k(x)-coefficients, shifts the y-slices."""
    return _track_matrices(C, N, _y_loc_basis,
                           lambda e: _y_series(e, N + 1), RatXY.const(0))


def _clip(bases, mats, N: int):
    """A track's bases and matrices built at some N' >= N, cut down to
    the coordinates t < N: the track at N, since every expansion is
    exact on the coordinates both keep."""
    keep = {n: [pos for pos, (_, _, t) in enumerate(basis) if t < N]
            for n, basis in bases.items()}
    clipped = {n: [[A[r][c] for c in keep[n]] for r in keep[n - 1]]
               for n, A in mats.items()}
    return {n: [bases[n][pos] for pos in kept] for n, kept in keep.items()}, clipped


def x_track_dims(C: ChainComplex, N: int) -> dict[int, int]:
    """QQ-dimensions of H_*(C (x) V/x^N)."""
    return _dims_from(*_x_track(C, N))


def y_track_dims(C: ChainComplex, N: int) -> dict[int, int]:
    """k(x)-dimensions of H_*((C (x) V/y^N)[1/x]), exact Gauss over QQ(x)."""
    return _dims_from(*_y_track(C, N))


def _from_slices(slices):
    out = {}
    for b, u in slices.items():
        for a, c in u.items():
            out[(a, b)] = c
    return out


def _y_series(e: RatXY, terms: int) -> dict[int, RatXY]:
    """y-adic expansion of e with k(x)-rational coefficients."""
    num_sl = _y_parts(e.num)
    den_sl = _y_parts(e.den)
    vn, vd = min(num_sl), min(den_sl)
    dd = {k - vd: RatXY(_from_slices({0: v}), {(0, 0): Fraction(1)})
          for k, v in den_sl.items()}
    nn = {k - vn: RatXY(_from_slices({0: v}), {(0, 0): Fraction(1)})
          for k, v in num_sl.items()}
    q: dict[int, RatXY] = {}
    for k in range(terms):
        acc = nn.get(k, RatXY.const(0))
        for j in range(k):
            if (k - j) in dd and j in q:
                acc = acc - q[j] * dd[k - j]
        q[k] = acc / dd[0]
    return {k + vn - vd: v for k, v in q.items() if not v.is_zero()}


def _mat_rank(M) -> int:
    """Rank over QQ (Fraction entries) or QQ(x) (RatXY entries) by
    forward elimination: each pivot row clears the rows below it, over
    its own non-zero columns only."""
    A = [row[:] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        prow = A[r]
        support = [k for k in range(c + 1, cols) if prow[k] != 0]
        for i in range(r + 1, rows):
            row = A[i]
            if row[c] != 0:
                f = row[c] / prow[c]
                for k in support:
                    row[k] = row[k] - f * prow[k]
        r += 1
        if r == rows:
            break
    return r


def _dims_from(bases, mats) -> dict[int, int]:
    """dim H_n = dim C_n - rank d_n - rank d_(n+1), each rank taken once."""
    ranks = {n: _mat_rank(A) for n, A in mats.items()}
    out = {}
    for n, basis in bases.items():
        h = len(basis) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out[n] = h
    return out


def _piece_dims(piece, N: int, track: str) -> tuple[int, int]:
    """(mod, tor) dimensions of one class piece under a residue track."""
    if piece[0] == "free":
        w = world_from_name(piece[1])
        if track == "x":
            return (N, 0) if _VAL_SLICES[w.name][2] == "O" else (0, 0)
        kind = _VAL_SLICES[w.name][0]
        if kind == "zero":
            raise OracleMismatch("y-residue track cannot see x-complete worlds")
        return (N, 0) if kind == "nonneg" else (0, 0)
    if piece[:2] == ("cyc", "V"):
        b, a = piece[2]
        if track == "x":
            return (min(a, N), min(a, N)) if b == 0 else (N, N)
        return (min(b, N), min(b, N))
    if piece[:2] == ("cyc", "Vp"):
        b = piece[2]
        return (0, 0) if track == "x" else (min(b, N), min(b, N))
    tag = piece[1]
    if track == "x":
        return (0, N) if tag in (PRUEFER_X, QUOT_KV) else (0, 0)
    return (0, N) if tag in (PRUEFER_Y, QUOT_KV) else (0, 0)


def _predicted_dims(classes: GradedClasses, N: int, track: str) -> dict[int, int]:
    out: dict[int, int] = {}
    degs = set(classes.data)
    for n in set(list(degs) + [m + 1 for m in degs]):
        total = 0
        for piece, mult in classes[n].pieces():
            total += _piece_dims(piece, N, track)[0] * mult
        for piece, mult in classes[n - 1].pieces():
            total += _piece_dims(piece, N, track)[1] * mult
        if total:
            out[n] = total
    return out


def val_oracle_check(C: ChainComplex, classes: GradedClasses,
                     Ns=(2, 4, 8)) -> bool:
    """Both residue tracks agree with the class predictions for each N
    (x-adic over QQ always; y-adic over QQ(x) when no x-complete strand
    is present).  Each track is built once, at the largest N, and
    clipped for the smaller ones."""
    top = max(Ns)
    tracks = [("x", _x_track(C, top))]
    if not any(w.name in ("VhatM", "VhatMInv") for w in C.worlds):
        tracks.append(("y", _y_track(C, top)))
    for N in Ns:
        for track, (bases, mats) in tracks:
            got = _dims_from(*_clip(bases, mats, N))
            want = _predicted_dims(classes, N, track)
            if got != want:
                raise OracleMismatch(f"{track}-residue N={N}: dims {got} != predicted {want}")
    return True


def oracle_check(C: ChainComplex, classes: GradedClasses, primes=(2, 3)) -> bool:
    """Dispatch on the backend; integer complexes are checked at every
    listed prime."""
    if C.backend == "valrank2":
        return val_oracle_check(C, classes)
    for p in primes:
        zint_oracle_check(C, classes, p)
    return True
