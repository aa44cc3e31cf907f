"""Residue-truncation oracles.

The mixed-world homology engine leans on a finite table of fracture
pullbacks, cross-atom quotients and completion identifications.  Every
table entry is validated here along an independent computational path:

  * integer backend: reduce a complex mod p^N.  Worlds with p invertible
    die, PrimeField(p) is refused, all others become Z/p^N, and H_n of
    the truncation must match the claimed classes through the
    universal-coefficient shape
    H_n(C/p^N) = H_n(C)/p^N (+) (p^N-torsion of H_{n-1}(C)) for each
    listed N.  Over Z_(p), C is a sum of [Z --p^e--> Z] and Z, so one
    local Smith form of each differential at the largest N gives every
    smaller N by capping the exponents: min(e, N).

  * valuation backend: realize worlds inside k((x))((y)) and compare
    homology dimensions on two residue tracks against per-piece
    predictions, for doubling N.  Both tracks expand an entry with one
    power-series division kernel, `_series_div`.  The x-track takes
    C (x) V/x^N over QQ: an entry's y^0 coefficient is the quotient of
    the lowest y-slices of its num and den, expanded over Fractions on
    the x-Laurent window [1-N, N).  The y-track takes (C (x) V/y^N)[1/x]
    over QQ(x): it divides all the y-slices, a y-adic series with
    k(x)-coefficients.

Each track build expands once every distinct non-zero entry of a block
whose source and target strands it keeps, and no other entry;
val_oracle_check builds each track once, at its largest N, and ranks
the clipped matrices for every N.  Nothing here shares a kernel with the
classifier or with linalg: the integer side runs its own local diagonal
form on plain ints (elimination mod p^e, as in Dumas, Saunders and
Villard, J. Symb. Comput. 32, 2001), the x-track eliminates over QQ
with Fractions, and the y-track eliminates over QQ(x) with RatXY
arithmetic.
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


def _over(A, B, M: int):
    """A B / M for int matrices, exactly; OracleMismatch when A B is not
    0 mod M, as then the image of B leaves the kernel of A."""
    qr = [[divmod(sum(a * b for a, b in zip(row, col)), M) for col in zip(*B)] for row in A]
    if any(r for row in qr for _, r in row):
        raise OracleMismatch("relation escapes the kernel lattice")
    return [[q for q, _ in row] for row in qr]


def _local_form(A, p: int, N: int) -> list[int]:
    """The local Smith form of an int matrix over Z/p^N: the p-adic
    valuations, each below N, of its non-zero diagonal.  The pivot p^v u
    has least valuation, so p^v divides its column and row operations
    alone clear it; its row is then set aside, as the column operations
    that would clear the rest of it change no other row."""
    M = p ** N
    rows = [[e % M for e in row] for row in A]
    vals = []
    while pivot := min(((math.gcd(e, M), i, j) for i, row in enumerate(rows)
                        for j, e in enumerate(row) if e), default=None):
        g, i, j = pivot
        prow = rows.pop(i)
        inv = pow(prow[j] // g, -1, M)
        for row in rows:
            q = row[j] // g * inv % M
            if q:
                row[:] = [(a - q * b) % M for a, b in zip(row, prow)]
        vals.append(next(v for v in range(N) if p ** v == g))
    return vals


def zmod_homology_exponents(ranks, mats, p: int, N: int) -> dict[int, list[int]]:
    """H_n of a free Z/p^N complex C as sorted p-exponent lists, also
    when C lifts to no complex over Z_(p).  As a complex of abelian groups
    C has the free resolution T_n = C_n (+) C_(n-1), differential [[d_n,
    p^N], [-h_n, -d_(n-1)]] with d_(n-1) d_n = p^N h_n; H_n(C) = H_n(T)
    has one summand Z/p^v per valuation v >= 1 of T's differential into
    degree n, and v <= N, as p^N kills H(T)."""
    M = p ** N
    out = {}
    for n, a in ranks.items():
        up, d = mats.get(n + 1) or [[]] * a, mats.get(n, [])   # zero blocks add no pivot
        T = ([row + [M * (i == j) for j in range(a)] for i, row in enumerate(up)]
             + [[-e for e in h + row] for h, row in zip(_over(d, up, M), d)])
        out[n] = sorted(v for v in _local_form(T, p, N + 1) if v)
    return {n: exps for n, exps in out.items() if exps}


def _reading(ranks, mats, p: int, N: int) -> dict[int, list[int]]:
    """H_*(C/p^N) from one local form per differential, for C a complex
    over Z_(p): a sum of [Z --p^v--> Z] and Z, so degree n holds each
    valuation v >= 1 of d_n and of d_(n+1), and N per free summand (rank
    C_n - rank d_n - rank d_(n+1)).  Capped at N' <= N, it reads mod p^N'."""
    for n, A in mats.items():
        if n + 1 in mats:
            _over(A, mats[n + 1], p ** N)
    vals = {n: _local_form(A, p, N) for n, A in mats.items()}
    out = {}
    for n, a in ranks.items():
        dn, up = vals.get(n, []), vals.get(n + 1, [])
        out[n] = sorted([v for v in dn + up if v] + [N] * (a - len(dn) - len(up)))
    return {n: exps for n, exps in out.items() if exps}


def _cap(exps: dict[int, list[int]], N: int) -> dict[int, list[int]]:
    return {n: [min(e, N) for e in v] for n, v in exps.items()}


def predicted_exponents(classes: GradedClasses, p: int, N: int) -> dict[int, list[int]]:
    degs = set(classes.data)
    out = {n: sorted(classes[n].zint_trunc(p, N)[0] + classes[n - 1].zint_trunc(p, N)[1])
           for n in degs | {m + 1 for m in degs}}
    return {n: exps for n, exps in out.items() if exps}


def zint_oracle_check(C: ChainComplex, classes: GradedClasses, p: int,
                      Ns=(4, 8, 16)) -> bool:
    """Claimed classes match the mod-p^N homology for each N in Ns, else
    OracleMismatch; both sides are read once, at the largest N, and
    capped at each N."""
    try:
        ranks, mats = zint_truncate(C, p, max(Ns))
    except ValueError:
        zint_truncate(C, p, Ns[0])   # refused at every N: name the first checked
        raise
    got = _reading(ranks, mats, p, max(Ns))
    want = predicted_exponents(classes, p, max(Ns))
    for N in Ns:
        if _cap(got, N) != _cap(want, N):
            raise OracleMismatch(f"mod {p}^{N}: truncated homology {_cap(got, N)} "
                                 f"!= predicted {_cap(want, N)}")
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


def _series_div(n: dict, d: dict, terms: int, zero) -> list:
    """The first `terms` coefficients of the power series n/d, for n and d
    dicts {k: c} with k >= 0 and d_0 invertible, by the classical
    recurrence q_k = (n_k - sum_(j<k) q_j d_(k-j)) / d_0 (Knuth, TAOCP
    vol. 2, 4.7).  zero is the coefficients' 0, read for a missing n_k."""
    q = []
    for k in range(terms):
        acc = n.get(k, zero)
        for j in range(k):
            if k - j in d:
                acc = acc - q[j] * d[k - j]
        q.append(acc / d[0])
    return q


def _x_window(e: RatXY, amin: int, amax: int) -> dict[int, Fraction]:
    """The x^a coefficients, amin <= a < amax, of the y^0 coefficient of e
    in k((x))((y)): 0 when y divides e, else the x-Laurent series of
    n0/d0, the quotient of the lowest y-slices of e's num and den.  An
    entry with a y-pole has no y^0 coefficient here and is refused."""
    num, den = _y_parts(e.num), _y_parts(e.den)
    if 0 not in den:
        raise OracleMismatch(f"entry {e} has a y-pole: the x-residue track cannot read it")
    if 0 not in num:
        return {}
    vn, vd = min(num[0]), min(den[0])
    s = vn - vd
    q = _series_div({a - vn: Fraction(c) for a, c in num[0].items()},
                    {a - vd: Fraction(c) for a, c in den[0].items()}, amax - s, Fraction(0))
    return {a: q[a - s] for a in range(max(amin, s), amax) if q[a - s]}


def _y_series(e: RatXY, terms: int) -> dict[int, RatXY]:
    """y-adic expansion of e with k(x)-coefficients: the y-slices of num
    and den, each shifted to y-order 0, divided as power series over
    k(x), from y^(vy e) on."""
    def slices(p):
        parts = _y_parts(p)
        v = min(parts)
        return v, {b - v: RatXY({(a, 0): c for a, c in u.items()}, {(0, 0): 1})
                   for b, u in parts.items()}
    (vn, n), (vd, d) = slices(e.num), slices(e.den)
    q = _series_div(n, d, terms, RatXY.const(0))
    return {k + vn - vd: c for k, c in enumerate(q) if not c.is_zero()}


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
    distinct non-zero entry of a block whose target strand keeps a
    coordinate is expanded once per call; no other entry is."""
    bases = {n: [(i, k, t) for i, (w, r) in enumerate(C.strand_list(n))
                 for k in range(r) for t in basis(w, N)]
             for n in C.degrees()}
    expanded: dict = {}
    mats: dict[int, list] = {}
    for n in C.degrees():
        if not bases[n] or not bases.get(n - 1):
            continue
        tgt_index = {key: pos for pos, key in enumerate(bases[n - 1])}
        targets = {j for j, _, _ in bases[n - 1]}
        A = [[zero] * len(bases[n]) for _ in range(len(bases[n - 1]))]
        for (m, i, j), Mb in C.blocks.items():
            if m != n or j not in targets:
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
    return _track_matrices(C, N, _x_track_basis,
                           lambda e: _x_window(e, 1 - N, N), Fraction(0))


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
