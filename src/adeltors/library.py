"""Example objects and randomized complex generators.

The library lists the desk-scale objects every verification suite runs
over; generators produce random bounded complexes as sums of shifted
two-term atoms conjugated by unimodular basis changes, so d o d = 0 is
structural and the homology is scrambled but known.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import ChainComplex, merge_strands
from .localize import Site
from .ratfunc import RatXY, x as rf_x, y as rf_y
from .worlds import VAL, Z_INV, Z_LOC, Z_RAT, World


def zint_library(site: Site):
    Z = site.base
    out = [
        ("unit", site.unit()),
        ("Zloc2", ChainComplex.unit(Z_LOC(2))),
        ("Q+Z8", ChainComplex.unit(Z_RAT()).dsum(ChainComplex.two_term(Z, Fraction(8)))),
        ("Z6", ChainComplex.two_term(Z, Fraction(6))),
        ("Z2+Zloc3", ChainComplex.two_term(Z, Fraction(2)).dsum(ChainComplex.unit(Z_LOC(3)))),
        ("Z12-shift", ChainComplex.two_term(Z, Fraction(12), top_degree=2)),
        ("Zinv2", ChainComplex.unit(Z_INV(2))),
    ]
    return [(n, X) for (n, X) in out]


def valrank2_library(site: Site):
    V = site.base
    kx, ky = rf_x(), rf_y()
    return [
        ("unit", site.unit()),
        ("V/x", ChainComplex.two_term(V, kx)),
        ("V/y", ChainComplex.two_term(V, ky)),
        ("V/x2y", ChainComplex.two_term(V, kx * kx * ky)),
        ("koszul-pair", ChainComplex.two_term(V, kx).tensor(ChainComplex.two_term(V, ky))),
        ("shifted", ChainComplex.two_term(V, kx, top_degree=-1)),
    ]


def library(site: Site):
    return zint_library(site) if site.backend == "zint" else valrank2_library(site)


def randomize_basis(C: ChainComplex, rng: random.Random, steps: int = 6) -> ChainComplex:
    """Conjugate by random elementary integer basis changes degreewise."""
    w = C.single_world()
    C = merge_strands(C)
    mats = {n: [list(r) for r in C.blocks[(n, 0, 0)]] for (n, _i, _j) in C.blocks}
    ranks = {n: C.rank(n) for n in C.degrees()}
    for _ in range(steps):
        n = rng.choice(list(ranks))
        r = ranks[n]
        if r < 2:
            continue
        i, j = rng.sample(range(r), 2)
        c = w.el_one() * rng.choice([1, -1, 2])
        # new basis f_j = e_j + c e_i at degree n: D_n gains col_j += c col_i,
        # D_{n+1} compensates with row_i -= c row_j
        if n in mats:
            for row in mats[n]:
                row[j] = row[j] + c * row[i]
        if (n + 1) in mats:
            M = mats[n + 1]
            for t in range(len(M[0])):
                M[i][t] = M[i][t] - c * M[j][t]
    if w.backend == "zint":  # Fraction entries, as an object file gives them
        mats = {n: [[Fraction(e) for e in row] for row in M] for n, M in mats.items()}
    return ChainComplex.single(w, ranks, mats)


def random_complex(rng: random.Random, world: World, primes=(2, 3, 5),
                   atoms: int = 3, degs=(-1, 0, 1, 2)) -> ChainComplex:
    """Random bounded complex of f.g. frees: shifted atoms, then a basis
    scramble."""
    out = ChainComplex.zero(world.backend)
    for _ in range(rng.randint(1, atoms)):
        top = rng.choice(degs)
        kind = rng.random()
        if kind < 0.25:
            out = out.dsum(ChainComplex.single(world, {top: 1}))
        else:
            if world.backend == "zint":
                a = Fraction(rng.choice([1, -1]))
                for p in primes:
                    a *= p ** rng.choice([0, 0, 1, 1, 2])
                if a in (1, -1) and rng.random() < 0.5:
                    a *= rng.choice(primes)
            else:
                a = RatXY.monomial(rng.choice([0, 0, 1, 2]), rng.choice([0, 1]),
                                   rng.choice([1, -1, 2]))
                if a.is_zero() or VAL("V").is_unit(a):
                    a = rf_x()
            out = out.dsum(ChainComplex.two_term(world, a, top_degree=top))
    return randomize_basis(out, rng)
