"""Residue-truncation oracles.

The mixed-world homology engine leans on a finite table of fracture
pullbacks, cross-atom quotients and completion identifications.  Every
table entry is validated here along an independent computational path.
Each residue track is a complex of frees over a truncated discrete
valuation ring R/t^N, so it is a sum of [R --t^e--> R] and R: one local
Smith form of each differential gives the exponents of its homology,
and capped at N' <= N they give every smaller N'.

  * integer backend: reduce a complex mod p^N.  Worlds with p invertible
    die, PrimeField(p) is refused, all others become Z/p^N, and H_n of
    the truncation must match the claimed classes through the
    universal-coefficient shape
    H_n(C/p^N) = H_n(C)/p^N (+) (p^N-torsion of H_{n-1}(C)) for each
    listed N, read at the largest N.

  * valuation backend: realize worlds inside k((x))((y)) and compare
    the exponents of two residue tracks with a per-piece exponent table,
    through the same shape.  The x-track takes C (x) V/x^N over
    k[[x]]/x^N: an entry becomes the y^0 coefficient of its series, the
    quotient of the lowest y-slices of its num and den, expanded over
    Fractions.  The y-track takes (C (x) V/y^N)[1/x] over k(x)[[y]]/y^N:
    an entry becomes its y-adic series with k(x)-coefficients.  Both
    expand with one power-series division kernel, `_series_div`, and
    take their local forms with one kernel on series, `_series_form`.
    An entry with a pole on the track it is read on is refused.

Each track read expands once every distinct non-zero entry of a block
whose source and target strands it keeps, and no other entry;
val_oracle_check reads each track once, above every exponent the claim
names.  Nothing here shares a kernel with the classifier or with
linalg: the integer side runs its own local diagonal form on plain ints
(elimination mod p^e, as in Dumas, Saunders and Villard, J. Symb.
Comput. 32, 2001), and the valuation side runs the same elimination on
truncated series, with Fraction coefficients on the x-track and RatXY
ones on the y-track.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classes import GradedClasses, ModuleClass, PRUEFER_X, PRUEFER_Y, QUOT_KV
from .complexes import ChainComplex
from .ratfunc import RatXY, _y_parts


class OracleMismatch(AssertionError):
    pass


# -- residue tracks -------------------------------------------------------------------


def _truncate(C: ChainComplex, keeps, read, zero):
    """Ranks per degree and differential matrices of C on one residue
    track.  keeps(w) tells whether a strand of world w survives, and
    read(e) gives the image of a non-zero entry e.  Each distinct non-zero
    entry of a block whose source and target strands survive is read once
    per call; no other entry is.  Every differential between non-zero
    ranks gets a matrix, with zero where no entry lands."""
    ranks: dict[int, int] = {}
    index: dict[tuple[int, int], int] = {}
    for n in C.degrees():
        at = 0
        for i, (w, r) in enumerate(C.strand_list(n)):
            if keeps(w):
                index[(n, i)] = at
                at += r
        ranks[n] = at
    mats = {n: [[zero] * ranks[n] for _ in range(ranks[n - 1])]
            for n in sorted(ranks) if ranks[n] and ranks.get(n - 1, 0)}
    images: dict = {}
    for (n, i, j), Mb in C.blocks.items():
        if (n, i) not in index or (n - 1, j) not in index:
            continue
        off_i, off_j = index[(n, i)], index[(n - 1, j)]
        for a, row in enumerate(Mb):
            for b, e in enumerate(row):
                if e != 0:
                    if e not in images:
                        images[e] = read(e)
                    mats[n][off_j + a][off_i + b] = images[e]
    return ranks, mats


def _exponents(ranks, orders, N: int) -> dict[int, list[int]]:
    """H_*(C/t^N) for C a complex of frees over a discrete valuation ring
    with uniformizer t, from the orders below N of one local form per
    differential: C is a sum of [R --t^v--> R] and R, so degree n holds
    each order v >= 1 of d_n and of d_(n+1), and N per free summand (rank
    C_n - rank d_n - rank d_(n+1)).  Capped at N' <= N, it reads mod t^N'."""
    out = {}
    for n, a in ranks.items():
        dn, up = orders.get(n, []), orders.get(n + 1, [])
        out[n] = sorted([v for v in dn + up if v] + [N] * (a - len(dn) - len(up)))
    return {n: exps for n, exps in out.items() if exps}


def _cap(exps: dict[int, list], N: int) -> dict[int, list[int]]:
    return {n: [min(e, N) for e in v] for n, v in exps.items()}


def _predicted(classes: GradedClasses, trunc) -> dict[int, list]:
    """The universal-coefficient shape: degree n holds the exponents of
    H_n mod t^N and those of the t^N-torsion of H_(n-1), where trunc(M)
    gives both lists for one class M."""
    degs = set(classes.data)
    out = {n: sorted(trunc(classes[n])[0] + trunc(classes[n - 1])[1])
           for n in degs | {m + 1 for m in degs}}
    return {n: exps for n, exps in out.items() if exps}


# -- integer side ---------------------------------------------------------------------


def zint_truncate(C: ChainComplex, p: int, N: int):
    """Integer matrices of C mod p^N: (ranks per degree, diff per degree).

    Worlds with p invertible die.  A PrimeField(p) strand is refused:
    F_p (x)^L Z/p^N is F_p in two degrees, not a free Z/p^N module."""
    M = p ** N

    def keeps(w):
        if w.kind == "fp" and w.char == p:
            raise ValueError(f"{w} strand has no free truncation mod {p}^{N}")
        return w.kind == "z" and p not in w.inv
    return _truncate(C, keeps, lambda e: e.numerator * pow(e.denominator % M, -1, M) % M, 0)


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
    over Z_(p); OracleMismatch when d o d is not 0 mod p^N."""
    for n, A in mats.items():
        if n + 1 in mats:
            _over(A, mats[n + 1], p ** N)
    return _exponents(ranks, {n: _local_form(A, p, N) for n, A in mats.items()}, N)


def predicted_exponents(classes: GradedClasses, p: int, N: int) -> dict[int, list[int]]:
    return _predicted(classes, lambda M: M.zint_trunc(p, N))


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

# slice structure: (y-range kind, x-type of the y^0 slice)
_VAL_SLICES = {
    "V": ("nonneg", "O"),
    "Vp": ("nonneg", "R"),
    "VhatPFull": ("nonneg", "O"),
    "VhatP": ("nonneg", "R"),
    "K": ("all", "R"),
    "VhatPInv": ("all", "R"),
    "VhatM": ("zero", "O"),
    "VhatMInv": ("zero", "R"),
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


def _x_entry(e: RatXY, N: int) -> dict[int, Fraction]:
    """e on the x-track: its y^0 coefficient mod x^N.  A y-pole is refused
    by _x_window; an x-pole is read off e's valuation, since the window
    of a pole of order N or more may hold no non-zero coefficient."""
    series = _x_window(e, 0, N)
    if e.val() < (0, 0):
        raise OracleMismatch(f"entry {e} has an x-pole: the x-residue track cannot read it")
    return series


def _y_entry(e: RatXY, N: int) -> dict[int, RatXY]:
    """e on the y-track: its y-adic series mod y^N, refused when its
    leading y-exponent is negative."""
    series = _y_series(e, N)
    if min(series) < 0:
        raise OracleMismatch(f"entry {e} has a y-pole: the y-residue track cannot read it")
    return {k: c for k, c in series.items() if k < N}


def _sub_mul(a: dict, q: dict, b: dict, N: int) -> dict:
    """a - q b for truncated series {k: c}, kept below t^N, without zeros."""
    out = dict(a)
    for i, c in q.items():
        for k, d in b.items():
            if i + k < N:
                out[i + k] = out.get(i + k, 0) - c * d
    return {k: c for k, c in out.items() if c != 0}


def _series_form(A, N: int, zero) -> list[int]:
    """The local Smith form of a matrix over R/t^N, R = F[[t]], with
    entries truncated series {k: c}, k < N and c != 0 in F: the t-orders,
    each below N, of its non-zero diagonal.  _local_form's elimination on
    series: the pivot t^v u has least order, so t^v divides its column;
    u is inverted with _series_div, the other rows are cleared, and the
    pivot row is set aside.  zero is F's 0."""
    rows = [list(row) for row in A]
    orders = []
    while pivot := min(((min(e), i, j) for i, row in enumerate(rows)
                        for j, e in enumerate(row) if e), default=None):
        v, i, j = pivot
        prow = rows.pop(i)
        if below := [row for row in rows if row[j]]:
            minus = _series_div({0: zero - 1}, {k - v: c for k, c in prow[j].items()},
                                N - v, zero)
            minus = {k: c for k, c in enumerate(minus) if c != 0}     # -1/u
            for row in below:
                q = _sub_mul({}, {k - v: c for k, c in row[j].items()}, minus, N - v)
                row[:] = [_sub_mul(a, q, b, N) for a, b in zip(row, prow)]
        orders.append(v)
    return orders


def _keeps(name: str, track: str) -> bool:
    """Whether a world survives a residue track.  On the x-track only an
    O-type y^0 slice does: x is invertible on R-type slices and the
    y-tail lies in every x-power.  On the y-track every y-slice of a
    world of non-negative y-range does, and none where y is invertible."""
    kind, y0 = _VAL_SLICES[name]
    if track == "x":
        return y0 == "O"
    if kind == "zero":
        raise OracleMismatch(f"y-residue track cannot see x-complete world {name}")
    return kind == "nonneg"


def val_track_reading(C: ChainComplex, track: str, N: int) -> dict[int, list[int]]:
    """H_* of C on one residue track, as exponents below N: the x-track
    C (x) V/x^N over k[[x]]/x^N, the y-track (C (x) V/y^N)[1/x] over
    k(x)[[y]]/y^N; one series local form per differential."""
    read, zero = (_x_entry, Fraction(0)) if track == "x" else (_y_entry, RatXY.const(0))
    ranks, mats = _truncate(C, lambda w: _keeps(w.name, track), lambda e: read(e, N), {})
    return _exponents(ranks, {n: _series_form(A, N, zero) for n, A in mats.items()}, N)


def _val_trunc(M: ModuleClass, track: str) -> tuple[list, list]:
    """The per-piece exponent table: (exponents of M mod t^N, exponents of
    the t^N-torsion of M) on a residue track, inf standing for N.  A free
    piece over a world the track keeps gives R; Cyclic(V, x^a y^b) gives
    x^a on the x-track when b = 0, and R on both sides when b > 0, as y^b
    is 0 there; on the y-track it gives y^b, as Cyclic(Vp, y^b) does.  A
    divisible quotient gives t^N-torsion where its t is not inverted."""
    mod, tor = [], []
    for piece, mult in M.pieces():
        if piece[0] == "free":
            if _keeps(piece[1], track):
                mod += [math.inf] * mult
        elif piece[0] == "cyc":
            if piece[1] == "V":
                b, a = piece[2]
                e = b if track == "y" else a if b == 0 else math.inf
            else:                      # Vp: x is a unit, only y-torsion
                e = piece[2] if track == "y" else 0
            if e:
                mod += [e] * mult
                tor += [e] * mult
        elif piece[1] in (QUOT_KV, PRUEFER_X if track == "x" else PRUEFER_Y):
            tor += [math.inf] * mult
    return mod, tor


def val_oracle_check(C: ChainComplex, classes: GradedClasses) -> bool:
    """Both residue tracks agree with the exponent table (x-adic always;
    y-adic when no x-complete strand is present).  Each track is read
    once, at N = max(8, 1 + the largest exponent the claim names on it):
    capped at N' <= N its reading is the track at N', and above every
    claimed exponent it tells exponent splits apart."""
    x_complete = any(_VAL_SLICES[w.name][0] == "zero" for w in C.worlds)
    tracks = ("x",) if x_complete else ("x", "y")
    for track in tracks:
        want = _predicted(classes, lambda M: _val_trunc(M, track))
        N = max([8] + [e + 1 for exps in want.values() for e in exps if e != math.inf])
        got, want = val_track_reading(C, track, N), _cap(want, N)
        if got != want:
            raise OracleMismatch(f"{track}-residue N={N}: exponents {got} != predicted {want}")
    return True


def oracle_check(C: ChainComplex, classes: GradedClasses, primes=(2, 3)) -> bool:
    """Dispatch on the backend; integer complexes are checked at every
    listed prime."""
    if C.backend == "valrank2":
        return val_oracle_check(C, classes)
    for p in primes:
        zint_oracle_check(C, classes, p)
    return True
