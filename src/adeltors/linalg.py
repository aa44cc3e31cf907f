"""Smith normal form over catalogue worlds.

One algorithm covers the whole catalogue.  Fields reduce by Gauss,
local worlds (Padic, IntLoc, V and friends) pivot on the entry of
minimal valuation which then divides everything in sight, and the other
integer worlds (Int, IntInv, and IntSemiLoc over two or more primes,
which are PIDs but not local) run the classical gcd loop.
The pivot rule is fixed (minimal valuation, then lowest row index) so
results are deterministic.

snf(A, world) returns (D, ops): D diagonal with d_i | d_{i+1} and
diagonal entries in canonical generator form, and ops the elementary
operations that take A to D, in order: ("row_add", i, j, c) and
("col_add", i, j, c) add c times row/column i to row/column j, c in the
world; ("row_swap", i, j) and ("col_swap", i, j) swap two; ("row_scale",
i, u) multiplies row i by a unit u.  Each is invertible over the world,
so no transform matrix is built: a caller replays the record, a row
operation as a change of basis of the target and a column operation as
one of the source.  Integral entries stay ints: the working copy and
every operation demote integral Fractions, and every quotient goes
through worlds.div_el.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .worlds import World, div_el, inv_el, is_zero_el, normal_el


def mat_mul(A, B):
    """A @ B, summing only the products of non-zero entries of each row
    of A; the sum starts from ``row[0] * 0`` (0 when A has no columns)."""
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    if n and len(A[0]) != k:
        raise ValueError("shape mismatch")
    out = []
    for row in A:
        start = row[0] * 0 if k else 0
        terms = [(a, B[t]) for t, a in enumerate(row) if not is_zero_el(a)]
        out.append([sum((a * Bt[j] for a, Bt in terms), start) for j in range(m)])
    return out


def mat_id(n, one):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


class SNFError(ValueError):
    pass


def snf(A, world: World):
    """Smith normal form over a world; see module docstring."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [[normal_el(e) for e in row] for row in A]
    ops = []

    # a cofinite world with fewer than two non-inverted primes is a field
    # or local, where the minimal pivot divides every entry
    euclidean = world.kind == "z" and not (world.inv.cofinite and len(world.inv.primes) < 2)

    def row_add(i, j, c):  # row_j += c * row_i; integral results as ints
        D[j] = [normal_el(a + c * b) for a, b in zip(D[j], D[i])]
        ops.append(("row_add", i, j, c))

    def col_add(i, j, c):  # col_j += c * col_i; integral results as ints
        for t in range(m):
            D[t][j] = normal_el(D[t][j] + c * D[t][i])
        ops.append(("col_add", i, j, c))

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        ops.append(("row_swap", i, j))

    def col_swap(i, j):
        for t in range(m):
            D[t][i], D[t][j] = D[t][j], D[t][i]
        ops.append(("col_swap", i, j))

    def row_scale(i, u):  # row_i *= u, u a unit; integral results as ints
        D[i] = [normal_el(e * u) for e in D[i]]
        ops.append(("row_scale", i, u))

    if euclidean:
        # clear denominators rowwise; the scale factors are world units
        for i in range(m):
            dens = [e.denominator for e in D[i] if not is_zero_el(e)]
            if dens:
                l = math.lcm(*dens)
                if l != 1:
                    if not world.is_unit(Fraction(1, l)):
                        raise SNFError(f"entry denominators not units over {world}")
                    row_scale(i, l)

    pos = 0
    while True:
        # find pivot among D[pos:, pos:]
        best = None
        for i in range(pos, m):
            for j in range(pos, n):
                if not is_zero_el(D[i][j]):
                    if not world.contains(D[i][j]):
                        raise SNFError(f"entry {D[i][j]} outside {world}")
                    key = (world.pivot_size(D[i][j]), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, pi, pj = best
        row_swap(pos, pi)
        col_swap(pos, pj)

        if euclidean:
            # gcd loop: shrink the pivot until it divides its row and column
            while True:
                p = D[pos][pos]
                i = next((i for i in range(pos + 1, m) if D[i][pos] % p != 0), None)
                if i is not None:
                    row_add(pos, i, -(D[i][pos] // p))
                    row_swap(pos, i)
                    continue
                j = next((j for j in range(pos + 1, n) if D[pos][j] % p != 0), None)
                if j is None:
                    break
                col_add(pos, j, -(D[pos][j] // p))
                col_swap(pos, j)

        p = D[pos][pos]
        for i in range(pos + 1, m):
            if not is_zero_el(D[i][pos]):
                if not world.divides(p, D[i][pos]):
                    raise SNFError(f"pivot {p} fails to divide {D[i][pos]} over {world}")
                row_add(pos, i, -div_el(D[i][pos], p))
        for j in range(pos + 1, n):
            if not is_zero_el(D[pos][j]):
                if not world.divides(p, D[pos][j]):
                    raise SNFError(f"pivot {p} fails to divide {D[pos][j]} over {world}")
                col_add(pos, j, -div_el(D[pos][j], p))

        if euclidean:
            # make the pivot divide the remaining submatrix (invariant factors)
            i = next((i for i in range(pos + 1, m) for j in range(pos + 1, n)
                      if D[i][j] % p != 0), None)
            if i is not None:
                row_add(i, pos, 1)
                continue  # redo this position
        pos += 1

    # canonical generators on the diagonal
    for i in range(min(m, n)):
        d = D[i][i]
        if not is_zero_el(d):
            canon = world.canonical_generator(d)
            u = div_el(d, canon)
            if not world.is_unit(u):
                raise SNFError(f"normalization failed over {world}")
            row_scale(i, inv_el(u))
    return D, ops
