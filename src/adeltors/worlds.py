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
spectrum is the chain m < p < g (m = (x, y), p = (y), g = 0), and a
world is one point pair on that chain: a completion height c (0 none,
1 at p = y-adic, 2 at m = x-adic, where y becomes 0) and a localization
height l (at m, p or g), the length of the inverted prefix of (x, y).
Inverting y inverts x, because y/x lies in V.

              l = 0          l = 1           l = 2
    c = 0     V              Vp = V[1/x]     K = QQ(x,y)
    c = 1     VhatPFull      VhatP           VhatPInv = k(x)((y))
    c = 2     VhatM = k[[x]] VhatMInv = k((x))   -

Every operation is computed from (c, l):

    canonical map W1 -> W2      c1 <= c2 and l1 <= l2
    invert x                    l := max(l, 1)
    invert y                    zero if c = 2, else l := 2
    complete at height h        zero if l + h > 2, else (max(c, h), l)
    fracture pullback           (c2, l1) of (c1, l1) -> (c1, l2) <- (c2, l2)
                                when c1 > c2, l1 < l2 and (c1, l2) exists
    atom rules (`homology`)     c1 <= c2, l1 < l2 and (c1 = c2 or l2 = 2)

Canonical maps compose along this thin lattice, so a map W1 -> W2 either
exists uniquely or not at all.  On carriers a canonical map acts as the
identity except into c = 2 from c < 2, where y goes to 0.  The worlds
with c <= 1 form the y-adic family inside k(x)((y)); a member's slice at
y-weight b is 0 for b < 0 unless y is inverted, O (no x-pole) for b = 0
unless x is inverted, and all of k(x) otherwise.
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
    comp_height: int = 0           # val: completion height c
    loc_height: int = 0            # val: localization height l
    char: int = 0                  # fp: the prime

    # -- naming ---------------------------------------------------------------
    @property
    def name(self) -> str:
        if self.kind == "zero":
            return "Zero"
        if self.kind == "fp":
            return f"PrimeField({self.char})"
        if self.kind == "val":
            return _VAL_NAMES[self.comp_height][self.loc_height]
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
                tuple(sorted(self.inv.primes)),
                self.name if self.kind == "val" else "", self.char)

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
        l = self.loc_height
        if self.comp_height == 2:
            return el.is_zero() or (el.is_y_free() and (l == 1 or el.vx_of_y_free() >= 0))
        if l == 2:
            return True
        return el.is_zero() or (el.val() >= (0, 0) if l == 0 else el.vy() >= 0)

    def is_unit(self, el) -> bool:
        if self.kind == "zero":
            return False
        if is_zero_el(el) or not self.contains(el):
            return False
        if self.kind == "fp":
            return vp(el, self.char) == 0
        if self.kind == "z":
            return self._invertible_part_only(el.numerator)
        l = self.loc_height
        if self.comp_height == 2:
            return el.is_y_free() and (l == 1 or el.vx_of_y_free() == 0)
        if l == 2:
            return True
        return el.val() == (0, 0) if l == 0 else el.vy() == 0

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
        # fields: x and y inverted, or x inverted once y is 0 (c = 2)
        if self.kind != "val" or self.loc_height + self.comp_height // 2 == 2:
            return (0, 0)
        if self.comp_height == 2:
            return (v[1], 0)
        return (v, 0) if self.loc_height == 0 else (v[0], 0)

    def canonical_generator(self, el):
        """Unit-normalized generator of the ideal (el)."""
        if is_zero_el(el):
            return self.el_zero()
        if self.kind == "fp" or self.is_unit(el):
            return self.el_one()
        if self.kind == "z":
            return self._noninvertible_part(el)
        b, a = el.val()
        if self.kind == "val" and self.loc_height + self.comp_height // 2 < 2:
            if self.comp_height == 2:
                return RatXY.monomial(el.vx_of_y_free(), 0)
            return RatXY.monomial(a if self.loc_height == 0 else 0, b)
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


# The valuation worlds by (comp_height, loc_height); the corner (2, 2)
# is missing because y is 0 once x-adically complete.
_VAL_NAMES = (("V", "Vp", "K"),
              ("VhatPFull", "VhatP", "VhatPInv"),
              ("VhatM", "VhatMInv"))


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


def VAL(name: str) -> World:
    for c, row in enumerate(_VAL_NAMES):
        if name in row:
            return World("valrank2", "val", comp_height=c, loc_height=row.index(name))
    raise WorldError(f"unknown valuation world {name}")


def ZERO(backend: str) -> World:
    return World(backend, "zero")


def world_from_name(name: str, backend: str | None = None) -> World:
    name = name.strip()
    if name == "Zero":
        return ZERO(backend or "zint")
    if any(name in row for row in _VAL_NAMES):
        return VAL(name)
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
    return src.comp_height <= dst.comp_height and src.loc_height <= dst.loc_height


def _kills_y(src: World, dst: World) -> bool:
    """Whether a canonical map src -> dst sends y to 0: it does exactly
    into the x-complete worlds (c = 2) from outside them."""
    return dst.kind == "val" and dst.comp_height == 2 and src.comp_height < 2


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


def _slice_of(w: World, b: int) -> str:
    """The slice type at y-weight b of a y-adic-family world: 0, O (no
    x-pole allowed) or R (all of k(x))."""
    if b > 0:
        return "R"
    if b == 0:
        return "O" if w.loc_height == 0 else "R"
    return "R" if w.loc_height == 2 else "0"


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
    if src.kind != "val" or dst.kind != "val":
        return False
    if src.comp_height > dst.comp_height or dst.comp_height == 2:
        return False
    b0, a0 = el.val()
    e_lead = "O" if a0 >= 0 else "R"
    for b in range(-2, 3):
        for c in range(b0, b0 + 3):
            et = e_lead if c == b0 else "R"
            got = _type_prod(_slice_of(src, b), et)
            if not _type_leq(got, _slice_of(dst, b + c)):
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


def invert_val(w: World, gens: frozenset[str]) -> World:
    """valrank2 localization at a subset of {x, y}."""
    if w.is_zero_world:
        return w
    l = w.loc_height
    if "x" in gens:
        l = max(l, 1)
    if "y" in gens:
        if w.comp_height == 2:
            return ZERO("valrank2")
        l = 2
    return World("valrank2", "val", comp_height=w.comp_height, loc_height=l)


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
    h = 2 if at == "m" else 1
    if w.loc_height + h > 2:
        return ZERO("valrank2")
    return World("valrank2", "val", comp_height=max(w.comp_height, h), loc_height=w.loc_height)


# -- fracture pullbacks ----------------------------------------------------------------
#
# Registered bicartesian triples: 0 -> W -> W1 (+) W2 -> W12 -> 0 exact via the
# canonical maps, with W the pullback.  The rule-table oracle (`ruleoracle`)
# validates every valrank2 triple and a sample of zint ones.


def fracture_pullback(w1: World, w2: World, w12: World) -> World | None:
    """The registered pullback of W1 -> W12 <- W2, or None."""
    if w1.backend != w2.backend or w1.backend != w12.backend:
        return None
    if not (canonical_map_exists(w1, w12) and canonical_map_exists(w2, w12)):
        return None
    if w1.backend == "valrank2":
        if w1.comp_height < w2.comp_height:
            w1, w2 = w2, w1
        if (w1.comp_height > w2.comp_height and w1.loc_height < w2.loc_height
                and (w12.comp_height, w12.loc_height) == (w1.comp_height, w2.loc_height)):
            return World("valrank2", "val", comp_height=w2.comp_height, loc_height=w1.loc_height)
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
