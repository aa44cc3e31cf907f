"""Coefficient worlds: the catalogue of rings complexes live over.

A world is an exact coefficient ring from a fixed catalogue.  Completed
worlds are symbolic: their elements are never materialized, matrices
over them carry entries from a dense effective carrier (on the integer
backend an int when integral and a Fraction only where a real
denominator appears; RatXY on the rank-two valuation backend), and all
structural questions (membership, units, divisibility, valuations) are
decided on carrier elements.  Integer-backend entries a caller hands in
may still be integral Fractions; the package keeps them as given and
demotes them to ints (`normal_el`) where it builds new blocks, and it
divides carriers only through `div_el`, which never gives a float.

Integer backend ("zint").  A world is (comp, inv) where comp is None or
a prime p (completion at p) and inv records the invertible primes,
either as a finite set or as a cofinite one:

    Int          = (None, fin {})          IntInv(S)   = (None, fin S)
    Rat          = (None, cofin {})        IntSemiLoc(S)= (None, cofin S)
    IntLoc(p)    = IntSemiLoc({p})
    Padic(p)     = (p, cofin {p})          PadicRat(p) = (p, cofin {})

Valuation backend ("valrank2").  The base ring V = {v >= 0} in QQ(x,y)
for the rank-two valuation v(x)=(0,1), v(y)=(1,0); see `ratfunc`.  Its
localizations and symbolic completions:

    V         rank-two valuation ring           Vp       = V[1/x], the y-adic DVR
    K         = QQ(x,y), fraction field         VhatM    = x-adic completion (= k[[x]])
    VhatMInv  = VhatM[1/x] (= k((x)))           VhatPFull= y-adic completion of V
    VhatP     = y-adic completion of Vp         VhatPInv = VhatP[1/y] (= k(x)((y)))

Canonical maps between worlds are localizations and completions; they
compose along a thin lattice, so a map W1 -> W2 either exists uniquely
or not at all.  On carriers a canonical map acts as the identity except
into the x-complete worlds VhatM/VhatMInv, where y goes to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ratfunc import RatXY, one as rf_one, zero as rf_zero


class WorldError(ValueError):
    pass


@lru_cache(maxsize=None)
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer, ((p, e), ...)."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def vp(q: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational (int or Fraction)."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@dataclass(frozen=True)
class InvSet:
    """A finite or cofinite set of invertible primes."""

    primes: frozenset[int]
    cofinite: bool = False

    def __contains__(self, p: int) -> bool:
        return (p not in self.primes) if self.cofinite else (p in self.primes)

    def issubset(self, other: "InvSet") -> bool:
        if not self.cofinite and not other.cofinite:
            return self.primes <= other.primes
        if not self.cofinite and other.cofinite:
            return not (self.primes & other.primes)
        if self.cofinite and other.cofinite:
            return other.primes <= self.primes
        return False  # cofinite inside finite

    def union(self, other: "InvSet") -> "InvSet":
        if not self.cofinite and not other.cofinite:
            return InvSet(self.primes | other.primes)
        if self.cofinite and other.cofinite:
            return InvSet(self.primes & other.primes, True)
        cof, fin = (self, other) if self.cofinite else (other, self)
        return InvSet(cof.primes - fin.primes, True)

    def intersect(self, other: "InvSet") -> "InvSet":
        if not self.cofinite and not other.cofinite:
            return InvSet(self.primes & other.primes)
        if self.cofinite and other.cofinite:
            return InvSet(self.primes | other.primes, True)
        cof, fin = (self, other) if self.cofinite else (other, self)
        return InvSet(fin.primes - cof.primes)


FIN0 = InvSet(frozenset())


@dataclass(frozen=True)
class World:
    """A catalogue world.  kind is 'z', 'val', 'fp', or 'zero'."""

    backend: str           # "zint" | "valrank2"
    kind: str              # "z" | "val" | "fp" | "zero"
    comp: int | None = None        # z: completion prime
    inv: InvSet = FIN0             # z: invertible primes
    sym: str = ""                  # val: symbol name
    char: int = 0                  # fp: the prime

    # -- naming ---------------------------------------------------------------
    @property
    def name(self) -> str:
        if self.kind == "zero":
            return "Zero"
        if self.kind == "fp":
            return f"PrimeField({self.char})"
        if self.kind == "val":
            return self.sym
        ps = ",".join(str(p) for p in sorted(self.inv.primes))
        if self.comp is None:
            if not self.inv.cofinite:
                return "Int" if not self.inv.primes else f"IntInv({ps})"
            if not self.inv.primes:
                return "Rat"
            if len(self.inv.primes) == 1:
                return f"IntLoc({ps})"
            return f"IntSemiLoc({ps})"
        return f"Padic({self.comp})" if self.comp in self.inv.primes or self.inv.primes else f"PadicRat({self.comp})"

    def __repr__(self):
        return self.name

    def sort_key(self):
        return (self.backend, self.kind, self.comp or 0, self.inv.cofinite,
                tuple(sorted(self.inv.primes)), self.sym, self.char)

    @property
    def is_zero_world(self) -> bool:
        return self.kind == "zero"

    # -- carrier arithmetic -----------------------------------------------------
    def el_zero(self):
        return 0 if self.backend == "zint" else rf_zero()

    def el_one(self):
        return 1 if self.backend == "zint" else rf_one()

    def _invertible_part_only(self, n: int) -> bool:
        """Whether |n| > 0 factors entirely through invertible primes,
        without ever factoring n."""
        n = abs(n)
        if n == 0:
            return False
        if self.inv.cofinite:
            return all(n % p for p in self.inv.primes)
        for p in self.inv.primes:
            while n % p == 0:
                n //= p
        return n == 1

    def contains(self, el) -> bool:
        """Carrier membership of a master-carrier element."""
        if self.kind == "zero":
            return is_zero_el(el)
        if self.kind == "fp":
            return el.denominator % self.char != 0
        if self.kind == "z":
            if el == 0:
                return True
            return self._invertible_part_only(el.denominator)
        return _VAL_MEMBER[self.sym](el)

    def is_unit(self, el) -> bool:
        if self.kind == "zero":
            return False
        if is_zero_el(el) or not self.contains(el):
            return False
        if self.kind == "fp":
            return vp(el, self.char) == 0
        if self.kind == "z":
            return self._invertible_part_only(el.numerator)
        return _VAL_UNIT[self.sym](el)

    def divides(self, a, b) -> bool:
        """a | b in this world (a nonzero)."""
        if is_zero_el(b):
            return True
        if is_zero_el(a):
            return False
        return self.contains(div_el(b, a))

    def _noninvertible_part(self, el: int | Fraction) -> int:
        """The product of non-invertible prime powers of el, factor-free."""
        if self.inv.cofinite:
            out = 1
            for p in self.inv.primes:   # the finitely many non-inverted primes
                v = vp(el, p)
                if v < 0:
                    raise WorldError(f"{el} not in {self}")
                out *= p ** v
            return out
        n = abs(el.numerator)
        for p in self.inv.primes:
            while n % p == 0:
                n //= p
        return n

    def pivot_size(self, el):
        """Pivot preference for SNF; smaller is better."""
        if self.kind == "z":
            return (self._noninvertible_part(el),
                    abs(el.numerator) * el.denominator)
        if self.kind == "fp":
            return (1, 0)
        v = el.val()
        sym = self.sym
        if sym in ("V", "VhatPFull"):
            return (v, 0)
        if sym in ("Vp", "VhatP"):
            return (v[0], 0)
        if sym == "VhatM":
            return (v[1], 0)
        return (0, 0)  # fields

    def canonical_generator(self, el):
        """Unit-normalized generator of the ideal (el)."""
        if is_zero_el(el):
            return self.el_zero()
        if self.kind == "fp" or self.is_unit(el):
            return self.el_one()
        if self.kind == "z":
            return self._noninvertible_part(el)
        b, a = el.val()
        if self.sym in ("V", "VhatPFull"):
            return RatXY.monomial(a, b)
        if self.sym in ("Vp", "VhatP"):
            return RatXY.monomial(0, b)
        if self.sym == "VhatM":
            return RatXY.monomial(el.vx_of_y_free(), 0)
        raise WorldError(f"no generator normal form over {self}")


def is_zero_el(el: int | Fraction | RatXY) -> bool:
    """Whether a carrier element (int, Fraction or RatXY) is zero."""
    return el == 0 if isinstance(el, (int, Fraction)) else el.is_zero()


def normal_el(el: int | Fraction | RatXY) -> int | Fraction | RatXY:
    """el with an integral Fraction demoted to its numerator, an int;
    every other carrier element unchanged."""
    return el.numerator if type(el) is Fraction and el.denominator == 1 else el


def div_el(a: int | Fraction | RatXY, b: int | Fraction | RatXY) -> int | Fraction | RatXY:
    """The exact quotient a / b (b nonzero) of two carrier elements.  Two
    ints divide by divmod, with a Fraction only on a remainder (a bare
    int / int would give a float); other rationals divide as Fractions,
    demoted to an int when integral; RatXY divides as RatXY."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return normal_el(a / b)


def inv_el(u: int | Fraction | RatXY) -> int | Fraction | RatXY:
    """The inverse of a nonzero carrier element (int, Fraction or RatXY);
    a rational inverse is an int when integral."""
    return div_el(1, u) if isinstance(u, (int, Fraction)) else u.inv()


# -- valuation-backend tables --------------------------------------------------

_VAL_MEMBER = {
    "V": lambda f: f.is_zero() or f.val() >= (0, 0),
    "Vp": lambda f: f.is_zero() or f.vy() >= 0,
    "K": lambda f: True,
    "VhatM": lambda f: f.is_zero() or (f.is_y_free() and f.vx_of_y_free() >= 0),
    "VhatMInv": lambda f: f.is_zero() or f.is_y_free(),
    "VhatP": lambda f: f.is_zero() or f.vy() >= 0,
    "VhatPFull": lambda f: f.is_zero() or f.val() >= (0, 0),
    "VhatPInv": lambda f: True,
}

_VAL_UNIT = {
    "V": lambda f: f.val() == (0, 0),
    "Vp": lambda f: f.vy() == 0,
    "K": lambda f: True,
    "VhatM": lambda f: f.is_y_free() and f.vx_of_y_free() == 0,
    "VhatMInv": lambda f: f.is_y_free(),
    "VhatP": lambda f: f.vy() == 0,
    "VhatPFull": lambda f: f.val() == (0, 0),
    "VhatPInv": lambda f: True,
}

_VAL_EDGES = {
    "V": {"Vp", "VhatPFull", "VhatM"},
    "Vp": {"K", "VhatP", "VhatMInv"},
    "VhatPFull": {"VhatP", "VhatM"},
    "VhatP": {"VhatPInv", "VhatMInv"},
    "VhatM": {"VhatMInv"},
    "K": {"VhatPInv"},
    "VhatMInv": set(),
    "VhatPInv": set(),
}


@lru_cache(maxsize=None)
def _val_reach(sym: str) -> frozenset[str]:
    seen = {sym}
    todo = [sym]
    while todo:
        for nxt in _VAL_EDGES[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


# -- constructors ---------------------------------------------------------------

def Z_INT() -> World:
    return World("zint", "z", None, FIN0)


def Z_INV(*primes: int) -> World:
    return World("zint", "z", None, InvSet(frozenset(primes)))


def Z_RAT() -> World:
    return World("zint", "z", None, InvSet(frozenset(), True))


def Z_SEMILOC(*primes: int) -> World:
    return World("zint", "z", None, InvSet(frozenset(primes), True))


def Z_LOC(p: int) -> World:
    return Z_SEMILOC(p)


def Z_PADIC(p: int) -> World:
    return World("zint", "z", p, InvSet(frozenset({p}), True))


def Z_PADICRAT(p: int) -> World:
    return World("zint", "z", p, InvSet(frozenset(), True))


def PRIME_FIELD(p: int) -> World:
    return World("zint", "fp", char=p)


def VAL(sym: str) -> World:
    if sym not in _VAL_MEMBER:
        raise WorldError(f"unknown valuation world {sym}")
    return World("valrank2", "val", sym=sym)


def ZERO(backend: str) -> World:
    return World(backend, "zero")


_BY_NAME_VAL = {s: VAL(s) for s in _VAL_MEMBER}


def world_from_name(name: str, backend: str | None = None) -> World:
    name = name.strip()
    if name == "Zero":
        return ZERO(backend or "zint")
    if name in _BY_NAME_VAL:
        return _BY_NAME_VAL[name]
    if name == "Int":
        return Z_INT()
    if name == "Rat":
        return Z_RAT()
    for prefix, ctor in (("IntInv", Z_INV), ("IntSemiLoc", Z_SEMILOC)):
        if name.startswith(prefix + "("):
            args = [int(t) for t in name[len(prefix) + 1:-1].split(",")]
            return ctor(*args)
    for prefix, ctor in (("IntLoc", Z_LOC), ("Padic", Z_PADIC),
                         ("PadicRat", Z_PADICRAT), ("PrimeField", PRIME_FIELD)):
        if name.startswith(prefix + "("):
            return ctor(int(name[len(prefix) + 1:-1]))
    raise WorldError(f"unknown world name {name!r}")


# -- canonical maps ----------------------------------------------------------------

def canonical_map_exists(src: World, dst: World) -> bool:
    if src.backend != dst.backend:
        return False
    if src.is_zero_world or dst.is_zero_world:
        return True
    if src == dst:
        return True
    if src.kind != dst.kind or src.kind == "fp":
        return False
    if src.kind == "z":
        return src.inv.issubset(dst.inv) and src.comp in (None, dst.comp)
    return dst.sym in _val_reach(src.sym)


_X_COMPLETE = ("VhatM", "VhatMInv")


def _kills_y(src: World, dst: World) -> bool:
    """Whether a canonical map src -> dst sends y to 0: it does exactly
    into the x-complete worlds from outside them."""
    return dst.kind == "val" and dst.sym in _X_COMPLETE and src.sym not in _X_COMPLETE


def carrier_act(src: World, dst: World, el):
    """Image of a carrier element along the canonical map src -> dst."""
    if dst.is_zero_world:
        return dst.el_zero()
    if not canonical_map_exists(src, dst):
        raise WorldError(f"no canonical map {src} -> {dst}")
    return el.y_eval() if _kills_y(src, dst) else el


def carrier_block(src: World, dst: World, M):
    """carrier_act on every entry of the matrix M, with the map decided
    once.  On the identity it gives M itself, or, when M holds a
    Fraction, a copy with its integral Fractions demoted to ints: blocks
    built from a caller's entries are int-only from here on."""
    if dst.is_zero_world:
        z = dst.el_zero()
        return [[z for _ in row] for row in M]
    if not canonical_map_exists(src, dst):
        raise WorldError(f"no canonical map {src} -> {dst}")
    if _kills_y(src, dst):
        return [[e.y_eval() for e in row] for row in M]
    if any(type(e) is Fraction for row in M for e in row):
        return [[normal_el(e) for e in row] for row in M]
    return M


# Worlds in the y-adic family sit inside k(x)((y)); the slice type of a
# member at y-weight b is 0, O (no x-pole allowed) or R.  The pair is
# (completion level, slice types at b = -1, 0, >= 1).
_Y_FAMILY = {
    "V": (0, ("0", "O", "R")), "Vp": (0, ("0", "R", "R")), "K": (0, ("R", "R", "R")),
    "VhatPFull": (1, ("0", "O", "R")), "VhatP": (1, ("0", "R", "R")),
    "VhatPInv": (1, ("R", "R", "R")),
}


def _slice_of(types, b):
    return types[0] if b < 0 else types[1] if b == 0 else types[2]


def _type_prod(a, b):
    if a == "0" or b == "0":
        return "0"
    return "O" if a == "O" and b == "O" else "R"


def _type_leq(a, b):
    return a == "0" or a == b or (a == "O" and b == "R")


def mult_map_allowed(src: World, dst: World, el) -> bool:
    """Whether x -> el * (image of x) is a valid module map src -> dst.

    Beyond entry-times-canonical-map this admits twisted multiplication
    maps inside the y-adic family of the valuation backend (both worlds
    subrings of k(x)((y)), no drop in completion level, and el shifting
    every y-slice of src into the matching slice of dst).
    """
    if dst.is_zero_world:
        return True
    if canonical_map_exists(src, dst):
        return dst.contains(el)
    if is_zero_el(el):
        return True
    if src.backend != "valrank2" or dst.backend != "valrank2":
        return False
    if src.kind != "val" or dst.kind != "val":
        return False
    if src.sym not in _Y_FAMILY or dst.sym not in _Y_FAMILY:
        return False
    lev_s, ts = _Y_FAMILY[src.sym]
    lev_d, td = _Y_FAMILY[dst.sym]
    if lev_s > lev_d:
        return False
    b0, a0 = el.val()
    e_lead = "O" if a0 >= 0 else "R"
    for b in range(-2, 3):
        for c in range(b0, b0 + 3):
            et = e_lead if c == b0 else "R"
            got = _type_prod(_slice_of(ts, b), et)
            if not _type_leq(got, _slice_of(td, b + c)):
                return False
    return True


def map_act(src: World, dst: World, el):
    """Entry transport for composing blocks: canonical maps act on the
    carrier, twisted multiplication maps act as the identity."""
    if dst.is_zero_world:
        return dst.el_zero()
    if canonical_map_exists(src, dst):
        return carrier_act(src, dst, el)
    return el


# -- world operations ----------------------------------------------------------------

def invert_primes(w: World, primes: frozenset[int]) -> World:
    """zint localization W[1/S]."""
    if w.is_zero_world:
        return w
    assert w.kind == "z"
    return World("zint", "z", w.comp, w.inv.union(InvSet(frozenset(primes))))


_VAL_INV_X = {"V": "Vp", "Vp": "Vp", "K": "K", "VhatM": "VhatMInv",
              "VhatMInv": "VhatMInv", "VhatP": "VhatP", "VhatPFull": "VhatP",
              "VhatPInv": "VhatPInv"}
_VAL_INV_Y = {"V": "K", "Vp": "K", "K": "K", "VhatM": None, "VhatMInv": None,
              "VhatP": "VhatPInv", "VhatPFull": "VhatPInv", "VhatPInv": "VhatPInv"}


def invert_val(w: World, gens: frozenset[str]) -> World:
    """valrank2 localization at a subset of {x, y}."""
    if w.is_zero_world:
        return w
    sym = w.sym
    if "x" in gens:
        sym = _VAL_INV_X[sym]
    if "y" in gens and sym is not None:
        sym = _VAL_INV_Y[sym]
    return VAL(sym) if sym else ZERO("valrank2")


_VAL_COMP_M = {"V": "VhatM", "VhatPFull": "VhatM", "VhatM": "VhatM"}
_VAL_COMP_P = {"V": "VhatPFull", "Vp": "VhatP", "VhatPFull": "VhatPFull",
               "VhatP": "VhatP", "VhatM": "VhatM", "VhatMInv": "VhatMInv"}


def complete_world(w: World, at) -> World:
    """Completion rule table: at is a prime (zint) or 'm'/'p' (valrank2).

    Derived completion of a free module over W, so a world with the
    completion parameter already invertible completes to zero.
    """
    if w.is_zero_world:
        return w
    if w.backend == "zint":
        assert w.kind == "z"
        if at in w.inv:
            return ZERO("zint")
        return Z_PADIC(at)
    table = _VAL_COMP_M if at == "m" else _VAL_COMP_P
    return VAL(table[w.sym]) if w.sym in table else ZERO("valrank2")


# -- fracture pullbacks ----------------------------------------------------------------
#
# Registered bicartesian triples: 0 -> W -> W1 (+) W2 -> W12 -> 0 exact via the
# canonical maps, with W the pullback.  Every entry is validated against the
# residue-truncation oracle in the test suite.

_VAL_PULLBACKS = {
    frozenset(("VhatM", "Vp")): ("VhatMInv", "V"),
    frozenset(("VhatM", "VhatP")): ("VhatMInv", "VhatPFull"),
    frozenset(("VhatPFull", "K")): ("VhatPInv", "V"),
    frozenset(("VhatP", "K")): ("VhatPInv", "Vp"),
    frozenset(("VhatPFull", "Vp")): ("VhatP", "V"),
}


def fracture_pullback(w1: World, w2: World, w12: World) -> World | None:
    """The registered pullback of W1 -> W12 <- W2, or None."""
    if w1.backend != w2.backend or w1.backend != w12.backend:
        return None
    if not (canonical_map_exists(w1, w12) and canonical_map_exists(w2, w12)):
        return None
    if w1.backend == "valrank2":
        key = frozenset((w1.sym, w2.sym))
        hit = _VAL_PULLBACKS.get(key)
        if hit and hit[0] == w12.sym:
            return VAL(hit[1])
        return None
    if w1.kind != "z" or w2.kind != "z":
        return None
    # order: completed side first
    if w1.comp is None and w2.comp is not None:
        w1, w2 = w2, w1
    p = w1.comp
    if p is None or w2.comp is not None or p in w1.inv or p not in w2.inv:
        return None
    if w12.comp != p or w12.inv != w1.inv.union(w2.inv):
        return None
    return World("zint", "z", None, w1.inv.intersect(w2.inv))
