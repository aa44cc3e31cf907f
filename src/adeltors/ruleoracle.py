"""Oracle validation of every mixed-world rule-table entry.

The classifier trusts four kinds of rule: fracture pullbacks, cross-atom
quotients, cone-atom quotients, and the completion and cyclic-reduction
normalizations.  validate_rule_tables instantiates each entry as a small
explicit complex, classifies it THROUGH THE RULE, and checks the claim
against the residue-truncation oracles, which share no code with the
classifier.  On valrank2 the atom entries are every ordered pair of
worlds the classifier answers, on fixed generators.  The oracles know
the valuation worlds only by name.  A non-stabilizing or mismatching
entry raises, which is a test-suite (and `verify rules`) failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classes import GradedClasses, ModuleClass
from .complexes import ChainComplex
from .homology import UnsupportedMixedShape, cone_atom_classes, cross_atom_classes
from .oracle import OracleMismatch, oracle_check, val_track_reading
from .ratfunc import RatXY, x as rf_x, y as rf_y
from .worlds import (VAL, World, Z_INT, Z_INV, Z_LOC, Z_PADIC, Z_PADICRAT,
                     Z_RAT, Z_SEMILOC, complete_world, fracture_pullback)

_VAL_SYMS = ["V", "Vp", "K", "VhatM", "VhatMInv", "VhatP", "VhatPFull", "VhatPInv"]
_M_COMPLETE = ("VhatM", "VhatMInv")   # completed at m: y acts as 0 there


def _fracture_complex(pull: World, w1: World, w2: World, w12: World) -> ChainComplex:
    """0 -> pull -> W1 (+) W2 -> W12 -> 0 with the canonical maps."""
    backend = pull.backend
    one12 = w12.el_one()
    strands = {1: [(pull, 1)], 0: [(w1, 1), (w2, 1)], -1: [(w12, 1)]}
    blocks = {(1, 0, 0): [[w1.el_one()]], (1, 0, 1): [[w2.el_one()]],
              (0, 0, 0): [[one12]], (0, 1, 0): [[-one12]]}
    return ChainComplex(backend, strands, blocks)


def _check_fracture(w1: World, w2: World, w12: World) -> bool:
    pull = fracture_pullback(w1, w2, w12)
    if pull is None:
        return False
    C = _fracture_complex(pull, w1, w2, w12)
    oracle_check(C, GradedClasses())
    return True


def _cross_complex(w1: World, w2: World, e) -> ChainComplex:
    return ChainComplex(w1.backend, {0: [(w1, 1)], -1: [(w2, 1)]},
                        {(0, 0, 0): [[e]]})


def _cone_atom_complex(w1: World, w2: World, a1, a2) -> ChainComplex:
    one = w2.el_one()
    return ChainComplex(w1.backend,
                        {1: [(w1, 1)], 0: [(w1, 1), (w2, 1)], -1: [(w2, 1)]},
                        {(1, 0, 0): [[-a1]], (1, 0, 1): [[one]],
                         (0, 0, 0): [[one]], (0, 1, 0): [[a2]]})


def validate_rule_tables(backend: str) -> int:
    """Validate every registered table entry for a backend; returns the
    number of entries checked, raises OracleMismatch on any failure."""
    checked = 0
    if backend == "zint":
        triples = [
            (Z_PADIC(2), Z_RAT(), Z_PADICRAT(2)),
            (Z_PADIC(2), Z_INV(2), Z_PADICRAT(2)),
            (Z_PADIC(3), Z_LOC(2), Z_PADICRAT(3)),
            (Z_PADIC(2), Z_SEMILOC(3, 5), Z_PADICRAT(2)),
            (Z_PADIC(2), Z_INV(2, 3), Z_PADICRAT(2)),
            (Z_PADIC(5), Z_SEMILOC(2, 3), Z_PADICRAT(5)),
        ]
        for (w1, w2, w12) in triples:
            if not _check_fracture(w1, w2, w12):
                raise OracleMismatch(f"fracture entry ({w1},{w2}|{w12}) missing")
            checked += 1
        crosses = [
            (Z_INT(), Z_INV(2), Fraction(1)), (Z_INT(), Z_INV(2), Fraction(12)),
            (Z_INT(), Z_INV(2, 3), Fraction(10)),
            (Z_LOC(2), Z_RAT(), Fraction(8)),
            (Z_PADIC(2), Z_PADICRAT(2), Fraction(4)),
            (Z_SEMILOC(2, 3), Z_LOC(2), Fraction(6)),
        ]
        for (w1, w2, e) in crosses:
            ker, coker = cross_atom_classes(w1, w2, e)
            C = _cross_complex(w1, w2, e)
            oracle_check(C, GradedClasses({0: ker, -1: coker}))
            checked += 1
        cones = [
            (Z_INT(), Z_INV(2), Fraction(6)), (Z_INT(), Z_INV(2, 3), Fraction(12)),
            (Z_LOC(2), Z_RAT(), Fraction(4)), (Z_PADIC(3), Z_PADICRAT(3), Fraction(9)),
            (Z_SEMILOC(2, 3), Z_RAT(), Fraction(6)),
        ]
        for (w1, w2, a) in cones:
            mid, bot = cone_atom_classes(w1, w2, a)
            C = _cone_atom_complex(w1, w2, a, a)
            oracle_check(C, GradedClasses({0: mid, -1: bot}))
            checked += 1
        # completion rules: residues of W agree with residues of its completion
        for W in [Z_INT(), Z_LOC(2), Z_INV(3), Z_SEMILOC(2, 3), Z_PADIC(2)]:
            for p in (2, 3):
                target = complete_world(W, p)
                a = ModuleClass.free(W).zint_trunc(p, math.inf)
                if a != ModuleClass.free(target).zint_trunc(p, math.inf):
                    raise OracleMismatch(f"completion rule {W} -> {target} at {p}")
                checked += 1
        # cyclic reductions: the quotient class is world-independent
        for W in [Z_LOC(2), Z_PADIC(2), Z_INV(3)]:
            C = ChainComplex.two_term(W, Fraction(4))
            oracle_check(C, GradedClasses({0: ModuleClass.cyclic(Z_INT(), Fraction(4))}))
            checked += 1
        return checked

    # valrank2
    kx, ky = rf_x(), rf_y()
    V, Vp, K = VAL("V"), VAL("Vp"), VAL("K")
    VhM, VhMI, VhP, VhPF, VhPI = (VAL("VhatM"), VAL("VhatMInv"), VAL("VhatP"),
                                  VAL("VhatPFull"), VAL("VhatPInv"))
    for (w1, w2, w12) in [(VhM, Vp, VhMI), (VhM, VhP, VhMI), (VhPF, K, VhPI),
                          (VhP, K, VhPI), (VhPF, Vp, VhP)]:
        if not _check_fracture(w1, w2, w12):
            raise OracleMismatch(f"fracture entry ({w1},{w2}|{w12}) missing")
        checked += 1
    # cross and cone atoms: every ordered pair of worlds, on each fixed
    # generator of the source; a pair the classifier refuses has no entry
    gens = [RatXY.const(1), kx, ky, kx * ky, kx ** 2 * ky]
    for s1 in _VAL_SYMS:
        for s2 in _VAL_SYMS:
            w1, w2 = VAL(s1), VAL(s2)
            for g in gens:
                if s1 in _M_COMPLETE and g.vy() > 0:
                    continue
                try:
                    ker, coker = cross_atom_classes(w1, w2, g)
                except UnsupportedMixedShape:
                    pass
                else:
                    C = _cross_complex(w1, w2, g)
                    oracle_check(C, GradedClasses({0: ker, -1: coker}))
                    checked += 1
                try:
                    mid, bot = cone_atom_classes(w1, w2, g)
                except UnsupportedMixedShape:
                    continue
                g2 = g.y_eval() if s2 in _M_COMPLETE else g
                C = _cone_atom_complex(w1, w2, g, g2)
                oracle_check(C, GradedClasses({0: mid, -1: bot}))
                checked += 1
    # completion identifications: the defining residue track must agree
    # (x-residues for the m-adic rules, y-residues for the y-adic ones)
    for (sym, at) in [("V", "m"), ("VhatPFull", "m"), ("Vp", "m"), ("K", "m"),
                      ("VhatP", "m"), ("VhatMInv", "m"),
                      ("V", "p"), ("Vp", "p"), ("K", "p"), ("VhatPInv", "p"),
                      ("VhatPFull", "p"), ("VhatP", "p"), ("VhatM", "p")]:
        W = VAL(sym)
        target = complete_world(W, at)
        track = "x" if at == "m" else "y"
        if track == "y" and (sym in _M_COMPLETE or target.name in _M_COMPLETE):
            # y acts as zero on the x-complete worlds; their y-adic rules
            # are identities and are covered by the x-track instead
            track = "x"
        if _unit_reading(W, track) != _unit_reading(target, track):
            raise OracleMismatch(f"completion rule {W} -> {target}: {track}-residues")
        checked += 1
    # cyclic reductions across the V and Vp families
    for (W, gen, rep) in [(VhM, kx ** 2, ModuleClass.cyclic(V, kx ** 2)),
                          (VhPF, kx, ModuleClass.cyclic(V, kx)),
                          (VhPF, ky, ModuleClass.cyclic(V, ky)),
                          (VhP, ky ** 2, ModuleClass.cyclic(Vp, ky ** 2))]:
        C = ChainComplex.two_term(W, gen)
        oracle_check(C, GradedClasses({0: rep}))
        checked += 1
    return checked


def _unit_reading(w: World, track: str):
    """The exponents of the unit complex of W on a residue track, read at
    N = 4; capped, they are the reading at N = 1, 2 and 3 as well."""
    return {} if w.is_zero_world else val_track_reading(ChainComplex.unit(w), track, 4)
