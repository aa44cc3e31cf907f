"""Fracture squares, exactly.

Walk through the coefficient worlds, take a Smith normal form over the
rank-two valuation ring, and watch the punctured cube of completions and
localizations glue the base ring back together -- first the classical
arithmetic square at p = 2, then the three-prime chain of the valuation
ring where two cube vertices vanish outright.

Run:  python demos/01_fracture_squares.py
"""

from fractions import Fraction as F

from adeltors import (AdelicCube, ChainComplex, Site, Z_LOC, Z_PADIC,
                      Z_PADICRAT, Z_RAT, homology, reconstruct_limit, snf)
from adeltors.ratfunc import parse_ratxy, x, y
from adeltors.worlds import VAL

print("== Smith normal form over a rank-two valuation ring ==")
V = VAL("V")
A = [[y(), x()]]
D, _ = snf(A, V)
print(f"snf([[y, x]]) over V has diagonal {D[0]}")
print("  (x has smaller valuation than y: v(x) = (0,1) < v(y) = (1,0))")

print("\n== The arithmetic fracture square at p = 2 ==")
print("Z is the pullback of Z_2-hat -> Q_2-hat <- Q, realized as an exact")
print("three-term complex whose homology is free of rank one over Z:")
site = Site("zint", T=(2,))
cube = AdelicCube(site)
for v in cube.shape.vertices:
    print(f"  vertex {v.name:>3}: {cube.ring_name(v.label)}")
rep = reconstruct_limit(cube.unit_diagram(), site.unit())
print(f"  limit homology: {rep.got}   (matches the unit: {rep.agree})")

print("\n== A localized object only sees its own primes ==")
X = ChainComplex.unit(Z_LOC(2))
D2 = cube.tensor(X)
for v in cube.shape.vertices:
    worlds = [w.name for (w, _) in D2.value(v.name).strand_list(0)]
    print(f"  vertex {v.name:>3} of 1_ad (x) Z_(2): {worlds}")
print(f"  reconstruction: {reconstruct_limit(D2, X).got}")

print("\n== The rank-two valuation chain m < p < g ==")
vsite = Site("valrank2")
vcube = AdelicCube(vsite)
for v in vcube.shape.vertices:
    print(f"  vertex {v.name:>4}: {vcube.ring_name(v.label)}")
print("Two vertices vanish: the m-adic completion kills y, so inverting")
print("y afterwards leaves nothing.  The limit still recovers V:")
vrep = reconstruct_limit(vcube.unit_diagram(), vsite.unit())
print(f"  limit homology: {vrep.got}   (agree: {vrep.agree})")

print("\n== Torsion objects round trip through the cube ==")
for name, el in [("V/x", x()), ("V/y", y()), ("V/x^2y", parse_ratxy("x^2*y"))]:
    Xv = ChainComplex.two_term(vsite.base, el)
    r = reconstruct_limit(vcube.tensor(Xv), Xv)
    print(f"  {name:<7} -> {r.got}   (agree: {r.agree})")
