"""Isomorphism classes of homology modules.

A ModuleClass is a finite multiset of elementary pieces:

  * free pieces Free(W, r) over a catalogue world W;
  * cyclic pieces W/(a) with a a nonzero nonunit, stored with the
    annihilator in canonical generator form and the world reduced to a
    representative of its quotient family -- Int, IntLoc(p) and
    Padic(p) all give the same quotients, as do V/VhatPFull/VhatM and
    Vp/VhatP (each reduction is validated by the truncation oracle);
  * divisible quotient pieces QuotSym(W2/W1) for canonical catalogue
    inclusions, stored as a tag: Pruefer(p) covers Z[1/p]/Z and
    Qhat_p/Zhat_p and Q/Z_(p); PrueferX covers Vp/V and k((x))/k[[x]];
    PrueferY covers K/Vp and k(x)((y))/k(x)[[y]]; QuotKV is K/V.

Equality is multiset equality after normalization; integer cyclic
pieces normalize to the primary decomposition internally and display as
divisibility-ordered invariant factors.
"""

from __future__ import annotations

from collections import Counter

from .worlds import World, factorint, world_from_name


PRUEFER = "pruefer"      # ("quot", "pruefer", p)
PRUEFER_X = "prueferX"   # ("quot", "prueferX")
PRUEFER_Y = "prueferY"   # ("quot", "prueferY")
QUOT_KV = "quotKV"       # ("quot", "quotKV")


def _cyc_pieces_zint(n: int):
    """Primary decomposition of Z/n."""
    out = []
    for p, e in factorint(n):
        out.append(("cyc", "Z", p ** e))
    return out


def _mono_str(a: int, b: int) -> str:
    xs = "x" if a == 1 else f"x^{a}" if a else ""
    ys = "y" if b == 1 else f"y^{b}" if b else ""
    return (xs + ys) or "1"


class ModuleClass:
    """Multiset of elementary module pieces; the value of one H_n."""

    def __init__(self, pieces=()):
        self._c = Counter(pieces)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def zero() -> "ModuleClass":
        return ModuleClass()

    @staticmethod
    def free(world: World, rank: int = 1) -> "ModuleClass":
        if rank < 0:
            raise ValueError("negative rank")
        if world.is_zero_world or rank == 0:
            return ModuleClass()
        return ModuleClass([("free", world.name)] * rank)

    @staticmethod
    def cyclic(world: World, ann) -> "ModuleClass":
        """Class of W/(ann); drops unit annihilators."""
        if world.is_unit(ann):
            return ModuleClass()
        gen = world.canonical_generator(ann)
        if world.backend == "zint":
            n = int(gen)
            if n == 0:
                return ModuleClass.free(world)
            if world.kind == "fp":
                return ModuleClass()  # field: ann nonzero means unit
            return ModuleClass(_cyc_pieces_zint(n))
        if gen.is_zero():
            return ModuleClass.free(world)
        b, a = gen.val()
        # canonical_generator leaves only V-like (l = 0) and Vp-like worlds
        if world.loc_height == 0:
            return ModuleClass([("cyc", "V", (b, a))])
        return ModuleClass([("cyc", "Vp", b)])

    @staticmethod
    def quot(tag: str, p: int | None = None) -> "ModuleClass":
        piece = ("quot", tag, p) if tag == PRUEFER else ("quot", tag)
        return ModuleClass([piece])

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other: "ModuleClass") -> "ModuleClass":
        out = ModuleClass()
        out._c = self._c + other._c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, ModuleClass) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def is_zero(self) -> bool:
        return not self._c

    def pieces(self):
        return sorted(self._c.items(), key=lambda kv: repr(kv[0]))

    # -- display -----------------------------------------------------------------
    def _invariant_factors(self) -> list[int]:
        """Recombine integer primary pieces into divisibility-ordered factors."""
        per_prime: dict[int, list[int]] = {}
        for piece, mult in self._c.items():
            if piece[:2] == ("cyc", "Z"):
                (p, e), = factorint(piece[2])
                per_prime.setdefault(p, []).extend([e] * mult)
        for v in per_prime.values():
            v.sort(reverse=True)
        depth = max((len(v) for v in per_prime.values()), default=0)
        factors = []
        for i in range(depth):
            f = 1
            for p, es in per_prime.items():
                if i < len(es):
                    f *= p ** es[i]
            factors.append(f)
        factors.reverse()  # ascending divisibility
        return factors

    def describe(self) -> list[str]:
        out = []
        for piece, mult in self.pieces():
            if piece[0] == "free":
                out.append(f"Free({piece[1]},{mult})")
            elif piece[:2] == ("cyc", "V"):
                b, a = piece[2]
                gen = _mono_str(a, b)
                out.extend([f"Cyclic(V,{gen})"] * mult)
            elif piece[:2] == ("cyc", "Vp"):
                out.extend([f"Cyclic(Vp,{_mono_str(0, piece[2])})"] * mult)
            elif piece[0] == "quot":
                tag = piece[1] if piece[1] != PRUEFER else f"Pruefer({piece[2]})"
                out.extend([f"Quot({tag})"] * mult)
        for f in self._invariant_factors():
            out.append(f"Cyclic(Z,{f})")
        return sorted(out)

    def __repr__(self):
        return " + ".join(self.describe()) if self._c else "0"

    def to_json(self):
        return self.describe()

    # -- truncation signatures (used by the residue oracle) ------------------------
    def zint_trunc(self, p: int, N: int) -> tuple[list[int], list[int]]:
        """(exponents of M/p^N, exponents of p^N-torsion of M), sorted."""
        mod, tor = [], []
        for piece, mult in self._c.items():
            if piece[0] == "free":
                w = world_from_name(piece[1])
                if w.kind == "z" and p not in w.inv:
                    mod.extend([N] * mult)
                elif w.kind == "fp" and w.char == p:
                    mod.extend([1] * mult)
                    tor.extend([1] * mult)
            elif piece[:2] == ("cyc", "Z"):
                e = next((e for q, e in factorint(piece[2]) if q == p), 0)
                if e:
                    mod.extend([min(e, N)] * mult)
                    tor.extend([min(e, N)] * mult)
            elif piece[0] == "quot" and piece[1] == PRUEFER and piece[2] == p:
                tor.extend([N] * mult)
        return sorted(mod), sorted(tor)


class GradedClasses:
    """Homology classes per degree."""

    def __init__(self, data: dict[int, ModuleClass] | None = None):
        self.data = {n: c for n, c in (data or {}).items() if not c.is_zero()}

    def __getitem__(self, n: int) -> ModuleClass:
        return self.data.get(n, ModuleClass())

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedClasses) and self.data == other.data

    def __add__(self, other: "GradedClasses") -> "GradedClasses":
        degrees = set(self.data) | set(other.data)
        return GradedClasses({n: self[n] + other[n] for n in degrees})

    def shift(self, s: int) -> "GradedClasses":
        return GradedClasses({n + s: c for n, c in self.data.items()})

    def is_zero(self) -> bool:
        return not self.data

    def degrees(self):
        return sorted(self.data)

    def __repr__(self):
        if not self.data:
            return "0"
        return "; ".join(f"H_{n} = {self.data[n]}" for n in sorted(self.data, reverse=True))

    def to_json(self):
        return {str(n): self.data[n].to_json() for n in sorted(self.data)}
