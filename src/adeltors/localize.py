"""Torsion, localization, and completion functors on the exact backends.

A Site fixes a backend (the integer fan or the rank-two valuation
chain) and a finite poset truncation.  It realizes:

  * Gamma_V X = fib(X -> X[1/S_V])   with S_V the inversion set of V:
    the primes of V over the integers, x for {m} and y for {m,p} over
    the valuation ring;
  * L_{V^c} X  = X[1/S_V]            (smashing, so a plain base change);
  * Lambda_V X                       termwise world completion, realizing
    Hom(Gamma_V 1, X) with Gamma_V 1 the explicit two-term complex -- an
    inverse limit never appears outside the validation oracle;
  * Delta_{V^c} X = fib(X -> Lambda_V X).

Regions must be realizable: over the integers only finite sets of
closed points (or everything); over the valuation chain the three
specialization-closed sets.  Anything else raises UnsupportedRegion
rather than approximating.

Splitting operations check the support hypotheses of the statements
they implement and refuse with HypothesisFailed when they do not hold;
a force flag computes both sides anyway and reports disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classes import GradedClasses
from .complexes import ChainComplex, ChainMap, fan_out_unit, fib
from .homology import atom_classes, decompose_single, homology
from .posets import SpecClosedSet, dim_filtration, min_of, valrank2_poset, zint_poset
from .ratfunc import x as rf_x, y as rf_y
from .worlds import VAL, World, Z_INT, complete_world, invert_primes, invert_val


class UnsupportedRegionError(ValueError):
    pass


class UnknownPrimeError(ValueError):
    pass


class HypothesisFailed(ValueError):
    pass


class TruncationTooSmall(ValueError):
    pass


class Site:
    """A backend with its truncated spectrum."""

    def __init__(self, backend: str, T=(2, 3)):
        if backend == "zint":
            self.T = tuple(sorted(set(T)))
            if not self.T:
                raise UnsupportedRegionError("integer backend needs a nonempty truncation")
            self.poset = zint_poset(self.T)
            self.base = Z_INT()
        elif backend == "valrank2":
            self.T = ()
            self.poset = valrank2_poset()
            self.base = VAL("V")
        else:
            raise UnsupportedRegionError(f"unknown backend {backend!r}")
        self.backend = backend

    # -- region plumbing ---------------------------------------------------------
    def region(self, V) -> frozenset[str]:
        """Resolve a region: a SpecClosedSet, a single prime (meaning its
        down closure), or a raw member set which must already be
        specialization closed."""
        if isinstance(V, SpecClosedSet):
            return V.members
        if isinstance(V, str):
            return self.poset.down(V)
        return SpecClosedSet(self.poset, frozenset(V)).members

    def _check_prime(self, p: str):
        if p not in self.poset.elements:
            raise UnknownPrimeError(f"unknown prime {p!r}")

    def inversion_set(self, V: frozenset[str]):
        """The multiplicative data inverting away from V (S_V)."""
        all_els = frozenset(self.poset.elements)
        if V == all_els:
            return None    # Gamma = id, L = 0
        if self.backend == "zint":
            if not all(self.poset.dim[p] == 0 for p in V):
                raise UnsupportedRegionError(
                    f"integer backend realizes only closed-point regions, got {sorted(V)}")
            return frozenset(int(p.strip("()")) for p in V)
        table = {frozenset(): frozenset(), frozenset({"m"}): frozenset({"x"}),
                 frozenset({"m", "p"}): frozenset({"y"})}
        if V not in table:
            raise UnsupportedRegionError(f"region {sorted(V)} not realizable")
        return table[V]

    def localize_op(self, S):
        if self.backend == "zint":
            return lambda w: invert_primes(w, S)
        return lambda w: invert_val(w, S)

    # -- objects --------------------------------------------------------------------
    def unit(self) -> ChainComplex:
        return ChainComplex.unit(self.base)

    def koszul(self, p: str) -> ChainComplex:
        """A compact complex with support the closure of p."""
        self._check_prime(p)
        if self.poset.dim[p] == self.poset.dimension:
            return self.unit()
        if self.backend == "zint":
            return ChainComplex.two_term(self.base, Fraction(int(p.strip("()"))),
                                         top_degree=1)
        gen = rf_x() if p == "m" else rf_y()
        return ChainComplex.two_term(self.base, gen, top_degree=1)

    # -- the four functors -------------------------------------------------------------
    def localized(self, X: ChainComplex, S) -> tuple[ChainComplex, ChainMap]:
        """(X[1/S], the unit map)."""
        op = self.localize_op(S)
        return fan_out_unit(X, lambda w: (op(w),))

    def l_complement(self, V, X: ChainComplex) -> ChainComplex:
        """L_{V^c} X, the smashing localization away from V."""
        members = self.region(V)
        S = self.inversion_set(members)
        if S is None:
            return ChainComplex.zero(self.backend)
        return X.base_change(self.localize_op(S))

    def gamma(self, V, X: ChainComplex) -> ChainComplex:
        members = self.region(V)
        S = self.inversion_set(members)
        if S is None:
            return X
        if not members:
            return ChainComplex.zero(self.backend)
        LX, u = self.localized(X, S)
        return fib(u)

    def completion_targets(self, members: frozenset[str]):
        if self.backend == "zint":
            return tuple(int(p.strip("()")) for p in sorted(members, key=lambda s: int(s.strip("()"))))
        if members == frozenset({"m"}):
            return ("m",)
        if members == frozenset({"m", "p"}):
            return ("p",)
        raise UnsupportedRegionError(f"no completion rule for {sorted(members)}")

    def lam(self, V, X: ChainComplex) -> ChainComplex:
        """Lambda_V X by termwise world completion (adelically shaped)."""
        members = self.region(V)
        all_els = frozenset(self.poset.elements)
        if members == all_els:
            return X
        if not members:
            return ChainComplex.zero(self.backend)
        if self.backend == "zint" and any(self.poset.dim[p] != 0 for p in members):
            raise UnsupportedRegionError("completion regions must be closed points")
        targets = self.completion_targets(members)
        LX, _ = self.completed(X, targets)
        return LX

    def completed(self, X: ChainComplex, targets) -> tuple[ChainComplex, ChainMap]:
        """(product of termwise completions at targets, the unit map)."""
        return fan_out_unit(X, lambda w: [complete_world(w, t) for t in targets])

    def delta(self, V, X: ChainComplex) -> ChainComplex:
        """Delta_{V^c} X = fib(X -> Lambda_V X)."""
        members = self.region(V)
        all_els = frozenset(self.poset.elements)
        if members == all_els:
            return ChainComplex.zero(self.backend)
        targets = self.completion_targets(members)
        LX, u = self.completed(X, targets)
        return fib(u)

    # -- prime-indexed versions (Notation-style shorthands) ----------------------------
    def gamma_at(self, p: str, X: ChainComplex) -> ChainComplex:
        return self.gamma(self.poset.down(p), X)

    def l_op(self, p: str):
        """The world op of L_p, the localization onto the up-cone of p
        (away from its complement, always specialization closed), or None
        when that cone is the whole poset and L_p is the identity."""
        self._check_prime(p)
        away = frozenset(self.poset.elements) - self.poset.up(p)
        return self.localize_op(self.inversion_set(away)) if away else None

    def l_at(self, p: str, X: ChainComplex) -> ChainComplex:
        """L_p = localization onto the up-cone of p."""
        op = self.l_op(p)
        return X if op is None else X.base_change(op)

    def gamma_le(self, n: int, X: ChainComplex) -> ChainComplex:
        return self.gamma(dim_filtration(self.poset, n).members, X)

    def l_ge(self, n: int, X: ChainComplex) -> ChainComplex:
        return self.l_complement(dim_filtration(self.poset, n - 1).members, X)

    # -- atomwise classification --------------------------------------------------------
    # A single-world X is Smith-reduced once per call and read off its atoms:
    # W -> W[1/S] is flat, so the atoms of L_S X are those of X carried into
    # W[1/S] (one whose a becomes a unit there is acyclic; atom_classes drops
    # it).  Nothing is kept past the call.
    def gamma_classes(self, V, X: ChainComplex) -> GradedClasses:
        """Homology classes of Gamma_V X: off the atoms of a single-world
        X, through the fibre for a mixed one."""
        members = self.region(V)
        W = X.single_world()
        if W is not None:
            return self._atom_gamma(members, W, lambda: decompose_single(X))
        if not members:
            return GradedClasses()
        return homology(self.gamma(members, X))

    def _atom_gamma(self, members: frozenset[str], W: World, atoms) -> GradedClasses:
        """Gamma_V classes of a complex over W; atoms() gives its atoms and
        is called only when the answer needs them."""
        S = self.inversion_set(members)
        if S is None:
            return atom_classes(W, atoms())
        if not members:
            return GradedClasses()
        Wloc = self.localize_op(S)(W)
        if Wloc == W:
            return GradedClasses()
        if Wloc.is_zero_world:
            return atom_classes(W, atoms())
        return atom_classes(W, atoms(), Wloc)

    def _read(self, X: ChainComplex):
        """(supp(X), members -> Gamma_V classes of X) for one call, both
        off one decomposition of a single-world X."""
        W = X.single_world()
        if W is None:
            supp = frozenset(p for p in self.poset.elements
                             if not self.gamma_classes(self.poset.down(p),
                                                       self.l_at(p, X)).is_zero())
            return supp, lambda members: self.gamma_classes(members, X)
        atoms = decompose_single(X)
        supp = set()
        for p in self.poset.elements:
            op = self.l_op(p)
            Wp = W if op is None else op(W)   # the world of L_p X
            if not (Wp.is_zero_world or
                    self._atom_gamma(self.poset.down(p), Wp, lambda: atoms).is_zero()):
                supp.add(p)
        return frozenset(supp), lambda members: self._atom_gamma(members, W, lambda: atoms)

    # -- support ------------------------------------------------------------------------
    def support(self, X: ChainComplex) -> frozenset[str]:
        """The primes p with Gamma_p L_p X nonzero."""
        return self._read(X)[0]

    # -- splittings -----------------------------------------------------------------------
    def split_gamma(self, V, X: ChainComplex, force: bool = False):
        """Gamma_V X against (+)_{p in max V} Gamma_p X (needs
        supp(X) & V inside max V)."""
        members = self.region(V)
        scs = SpecClosedSet(self.poset, members)
        supp, gamma = self._read(X)
        hyp = (supp & members) <= scs.max_elements()
        if not hyp and not force:
            raise HypothesisFailed(
                f"supp(X) meets {sorted(members)} below its maximal elements")
        lhs = GradedClasses()
        for p in self.poset.canonical_order(scs.max_elements()):
            lhs = lhs + gamma(self.poset.down(p))
        rhs = gamma(members)
        return SplitReport("gamma-splitting", hyp, lhs, rhs)

    def split_l(self, V, X: ChainComplex, force: bool = False):
        """L_{V^c} X against (+)_{p in min V^c} L_p X (needs
        supp(X) & V^c inside min V^c)."""
        members = self.region(V)
        comp = frozenset(self.poset.elements) - members
        mins = min_of(self.poset, comp)
        supp = self.support(X)
        hyp = (supp & comp) <= mins
        if not hyp and not force:
            raise HypothesisFailed(
                f"supp(X) meets the complement of {sorted(members)} above its minimum")
        lhs = self.l_complement(members, X)
        rhs = ChainComplex.zero(self.backend)
        for p in self.poset.canonical_order(mins):
            rhs = rhs.dsum(self.l_at(p, X))
        return SplitReport("l-splitting", hyp, homology(lhs), homology(rhs))

    def gamma_product(self, V, family) -> "SplitReport":
        """Gamma_V prod_i Gamma_V X_i against Gamma_V prod_i X_i."""
        members = self.region(V)
        prod_gamma = ChainComplex.zero(self.backend)
        prod_plain = ChainComplex.zero(self.backend)
        for X in family:
            prod_gamma = prod_gamma.dsum(self.gamma(members, X))
            prod_plain = prod_plain.dsum(X)
        lhs = self.gamma(members, prod_gamma)
        rhs = self.gamma(members, prod_plain)
        return SplitReport("gamma-products", True, homology(lhs), homology(rhs))

    # -- mono-dimensional pieces -------------------------------------------------------------
    def e_object(self, i: int) -> ChainComplex:
        """Gamma_{<=i} L_{>=i} of the unit."""
        return self.gamma_le(i, self.l_ge(i, self.unit()))

    def epointy_check(self, i: int, X: ChainComplex) -> "SplitReport":
        """Gamma_{<=i} prod_{x_i} L_{x_i} X against e(i) (x) X."""
        prod = ChainComplex.zero(self.backend)
        for x in self.poset.of_dim(i):
            prod = prod.dsum(self.l_at(x, X))
        lhs = self.gamma_le(i, prod)
        if X.single_world() != self.base:
            raise UnsupportedRegionError("tensor factor must live over the base world")
        rhs = self.e_object(i).tensor(X)
        return SplitReport("mono-dimensional-split", True, homology(lhs), homology(rhs))

    # -- MGM -------------------------------------------------------------------------------
    def mgm_check(self, V, X: ChainComplex) -> "MGMReport":
        members = self.region(V)
        if members == frozenset(self.poset.elements):   # Gamma_V and Lambda_V are the identity
            H = homology(X)
            return MGMReport(H, H, H, H)
        GX = self.gamma(members, X)
        LamX = self.lam(members, X)
        LamGX = self.lam(members, GX)
        lam_gamma = homology(LamGX)
        W = LamX.single_world()
        if W is None:
            lam, gamma_lam = homology(LamX), self.gamma_classes(members, LamX)
        else:
            atoms = decompose_single(LamX)
            lam = atom_classes(W, atoms)
            gamma_lam = self._atom_gamma(members, W, lambda: atoms)
        return MGMReport(lam_gamma, lam, self.gamma_classes(members, X), gamma_lam)


@dataclass
class SplitReport:
    check: str
    hypothesis: bool
    lhs: GradedClasses
    rhs: GradedClasses

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self):
        return {"check": self.check, "hypothesis": self.hypothesis,
                "agree": self.agree, "lhs": self.lhs.to_json(),
                "rhs": self.rhs.to_json()}


@dataclass
class MGMReport:
    lam_gamma: GradedClasses
    lam: GradedClasses
    gamma: GradedClasses
    gamma_lam: GradedClasses

    @property
    def agree(self) -> bool:
        return self.lam_gamma == self.lam and self.gamma == self.gamma_lam

    def to_json(self):
        return {"check": "mgm", "agree": self.agree,
                "lam_gamma": self.lam_gamma.to_json(), "lam": self.lam.to_json(),
                "gamma": self.gamma.to_json(), "gamma_lam": self.gamma_lam.to_json()}

