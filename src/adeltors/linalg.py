"""Smith normal form over catalogue worlds.

One algorithm covers the whole catalogue.  Fields reduce by Gauss,
local worlds (Padic, IntLoc, V and friends) pivot on the entry of
minimal valuation which then divides everything in sight, and the other
integer worlds (Int, IntInv, and IntSemiLoc over two or more primes,
which are PIDs but not local) run the classical gcd loop.
The pivot rule is fixed (minimal valuation, then lowest row index) so
results are deterministic.

snf(A, world) returns (U, D, Vt) with A = U @ D @ Vt, U and Vt products
of elementary world-invertible operations, D diagonal with d_i | d_{i+1}
and diagonal entries in canonical generator form.  Integral entries stay
ints: the working copy and every row and column operation demote
integral Fractions, and every quotient goes through worlds.div_el.
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
    one = world.el_one()
    D = [[normal_el(e) for e in row] for row in A]
    U = mat_id(m, one)
    Vt = mat_id(n, one)

    # a cofinite world with fewer than two non-inverted primes is a field
    # or local, where the minimal pivot divides every entry
    euclidean = world.kind == "z" and not (world.inv.cofinite and len(world.inv.primes) < 2)

    def row_add(i, j, c):  # row_j += c * row_i; integral results as ints
        for t in range(n):
            D[j][t] = normal_el(D[j][t] + c * D[i][t])
        for t in range(m):
            U[t][i] = normal_el(U[t][i] - c * U[t][j])

    def col_add(i, j, c):  # col_j += c * col_i; integral results as ints
        for t in range(m):
            D[t][j] = normal_el(D[t][j] + c * D[t][i])
        for t in range(n):
            Vt[i][t] = normal_el(Vt[i][t] - c * Vt[j][t])

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        for t in range(m):
            U[t][i], U[t][j] = U[t][j], U[t][i]

    def col_swap(i, j):
        for t in range(m):
            D[t][i], D[t][j] = D[t][j], D[t][i]
        Vt[i], Vt[j] = Vt[j], Vt[i]

    def row_scale(i, u):  # row_i *= u, u a unit; integral results as ints
        for t in range(n):
            D[i][t] = normal_el(D[i][t] * u)
        uinv = inv_el(u)
        for t in range(m):
            U[t][i] = normal_el(U[t][i] * uinv)

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
                done = True
                for i in range(pos + 1, m):
                    if not is_zero_el(D[i][pos]) and D[i][pos] % p != 0:
                        row_add(pos, i, -(D[i][pos] // p))
                        row_swap(pos, i)
                        done = False
                        break
                if not done:
                    continue
                for j in range(pos + 1, n):
                    if not is_zero_el(D[pos][j]) and D[pos][j] % p != 0:
                        col_add(pos, j, -(D[pos][j] // p))
                        col_swap(pos, j)
                        done = False
                        break
                if done:
                    break

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
            fixed = True
            for i in range(pos + 1, m):
                for j in range(pos + 1, n):
                    if not is_zero_el(D[i][j]) and D[i][j] % p != 0:
                        row_add(i, pos, 1)
                        fixed = False
                        break
                if not fixed:
                    break
            if not fixed:
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
    return U, D, Vt
