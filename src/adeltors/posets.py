"""Finite Balmer posets, specialization-closed subsets, assembly data.

The poset order is the specialization order: q <= p means q lies in the
closure of p, so closed points are minimal and generic points maximal.
Posets are stored with the full transitive closure; dimensions are
always derived from chain lengths, never trusted from input.

A canonical total order on elements (dimension, then identifier) fixes
the ordering of every direct sum and product built downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class PosetError(ValueError):
    pass


class CycleError(PosetError):
    pass


class DimMismatchError(PosetError):
    pass


class UnknownElementError(PosetError):
    pass


class RangeError(PosetError):
    pass


class NotSpecClosedError(PosetError):
    pass


class AssemblyError(PosetError):
    pass


class NotRetractionError(AssemblyError):
    pass


class NotOrderPreservingError(AssemblyError):
    pass


class DimensionNotPreservedError(AssemblyError):
    pass


@dataclass(frozen=True)
class BalmerPoset:
    """A finite poset under specialization, with derived dimensions.

    order holds the full reflexive-transitive closure as pairs (q, p)
    meaning q <= p (q specializes p).
    """

    elements: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    dim: dict[str, int] = field(hash=False, compare=False, default_factory=dict)

    def leq(self, q: str, p: str) -> bool:
        return (q, p) in self.order

    @property
    def dimension(self) -> int:
        return max(self.dim.values(), default=0)

    def down(self, p: str) -> frozenset[str]:
        """closure{p} = all q <= p."""
        self._check(p)
        return frozenset(q for q in self.elements if self.leq(q, p))

    def up(self, p: str) -> frozenset[str]:
        """up-cone: all q >= p."""
        self._check(p)
        return frozenset(q for q in self.elements if self.leq(p, q))

    def _check(self, p: str):
        if p not in self.elements:
            raise UnknownElementError(f"unknown element {p!r}")

    def of_dim(self, i: int) -> tuple[str, ...]:
        return tuple(p for p in self.elements if self.dim[p] == i)

    def canonical_order(self, ps):
        return sorted(ps, key=lambda p: (self.dim[p], p))

    def __repr__(self):
        return f"BalmerPoset({len(self.elements)} elements, dim {self.dimension})"


def validate_poset(relations, elements=None, dims=None) -> BalmerPoset:
    """Build a poset from raw relations [(q, p) meaning q <= p].

    Fails with CycleError if antisymmetry would be violated, and with
    DimMismatchError if supplied dims disagree with derived ones.
    """
    els = set(elements or [])
    for q, p in relations:
        els.add(q)
        els.add(p)
    els = tuple(sorted(els))
    idx = {e: i for i, e in enumerate(els)}
    n = len(els)
    adj = [[False] * n for _ in range(n)]
    for q, p in relations:
        adj[idx[q]][idx[p]] = True
    for i in range(n):
        adj[i][i] = True
    # Floyd-Warshall transitive closure
    for k in range(n):
        rk = adj[k]
        for i in range(n):
            if adj[i][k]:
                ri = adj[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i][j] and adj[j][i]:
                raise CycleError(f"{els[i]!r} and {els[j]!r} lie on a cycle")
    order = frozenset((els[i], els[j]) for i in range(n) for j in range(n) if adj[i][j])
    # dims: longest strictly descending chain below each element
    dim: dict[str, int] = {}
    pending = list(range(n))
    while pending:
        nxt = []
        for i in pending:
            below = [j for j in range(n) if adj[j][i] and j != i]
            if all(els[j] in dim for j in below):
                dim[els[i]] = max((dim[els[j]] + 1 for j in below), default=0)
            else:
                nxt.append(i)
        pending = nxt
    if dims is not None:
        for e, d in dims.items():
            if dim.get(e) != d:
                raise DimMismatchError(f"supplied dim({e}) = {d}, derived {dim.get(e)}")
    return BalmerPoset(els, order, dim)


@dataclass(frozen=True)
class SpecClosedSet:
    poset: BalmerPoset
    members: frozenset[str]

    def __post_init__(self):
        for p in self.members:
            self.poset._check(p)
            if not self.poset.down(p) <= self.members:
                raise NotSpecClosedError(f"{p!r} has closure outside the set")

    def max_elements(self) -> frozenset[str]:
        return frozenset(p for p in self.members
                         if not any(q != p and self.poset.leq(p, q) for q in self.members))

    def __contains__(self, p):
        return p in self.members

    def __le__(self, other):
        return self.members <= other.members

    def __repr__(self):
        return "SpecClosed{" + ",".join(sorted(self.members)) + "}"


def down_closure(P: BalmerPoset, S) -> SpecClosedSet:
    out = set()
    for p in S:
        out |= P.down(p)
    return SpecClosedSet(P, frozenset(out))


def up_cone(P: BalmerPoset, p: str) -> frozenset[str]:
    return P.up(p)


def min_of(P: BalmerPoset, subset) -> frozenset[str]:
    return frozenset(p for p in subset
                     if not any(q != p and P.leq(q, p) for q in subset))


def dim_filtration(P: BalmerPoset, n: int) -> SpecClosedSet:
    if not (-1 <= n <= P.dimension):
        raise RangeError(f"filtration level {n} outside [-1, {P.dimension}]")
    return SpecClosedSet(P, frozenset(p for p in P.elements if P.dim[p] <= n))


@dataclass(frozen=True)
class AssemblyData:
    ambient: BalmerPoset
    subposet: frozenset[str]
    alpha: dict[str, str] = field(hash=False, compare=False)

    def classes(self, x: str) -> frozenset[str]:
        return frozenset(p for p in self.ambient.elements if self.alpha[p] == x)

    def sub_elements_of_dim(self, i: int):
        return tuple(x for x in sorted(self.subposet) if self.ambient.dim[x] == i)

    def __repr__(self):
        return f"AssemblyData({len(self.subposet)} classes over {self.ambient!r})"


def validate_assembly(P: BalmerPoset, subposet, alpha) -> AssemblyData:
    sub = frozenset(subposet)
    for x in sub:
        P._check(x)
    for p in P.elements:
        if p not in alpha:
            raise NotRetractionError(f"alpha undefined on {p!r}")
        if alpha[p] not in sub:
            raise NotRetractionError(f"alpha({p!r}) lands outside the subposet")
    for x in sub:
        if alpha[x] != x:
            raise NotRetractionError(f"alpha({x!r}) = {alpha[x]!r} is not the identity")
    for q in P.elements:
        for p in P.elements:
            if P.leq(q, p) and not P.leq(alpha[q], alpha[p]):
                raise NotOrderPreservingError(
                    f"{q!r} <= {p!r} but alpha images are incomparable")
    for p in P.elements:
        if P.dim[alpha[p]] != P.dim[p]:
            raise DimensionNotPreservedError(
                f"dim(alpha({p!r})) = {P.dim[alpha[p]]} != dim({p!r}) = {P.dim[p]}")
    return AssemblyData(P, sub, dict(alpha))


def finest(P: BalmerPoset) -> AssemblyData:
    return validate_assembly(P, P.elements, {p: p for p in P.elements})


def coarsest(P: BalmerPoset) -> AssemblyData:
    """Assembly onto the lexicographically least maximal chain.

    Any longest chain c_0 < ... < c_d has dim(c_i) = i, and p -> c_dim(p)
    is an order- and dimension-preserving retraction.
    """
    d = P.dimension

    def extend(chain):
        i = len(chain)
        if i == d + 1:
            return chain
        for p in sorted(P.elements):
            if P.dim[p] == i and (not chain or P.leq(chain[-1], p)):
                got = extend(chain + [p])
                if got:
                    return got
        return None

    best = extend([])
    if best is None:
        raise AssemblyError("no maximal chain through every dimension")
    alpha = {p: best[P.dim[p]] for p in P.elements}
    return validate_assembly(P, frozenset(best), alpha)


def preimage_family(A: AssemblyData, V) -> SpecClosedSet:
    """alpha^{-1}(V) for V specialization closed in the subposet."""
    V = frozenset(V)
    for x in V:
        if x not in A.subposet:
            raise UnknownElementError(f"{x!r} not in the subposet")
        for y in A.subposet:
            if A.ambient.leq(y, x) and y not in V:
                raise NotSpecClosedError(f"{V} not specialization closed in the subposet")
    return SpecClosedSet(A.ambient,
                         frozenset(p for p in A.ambient.elements if A.alpha[p] in V))


# -- example generators -------------------------------------------------------------

def zint_poset(primes) -> BalmerPoset:
    """The truncated fan for the integers: sampled closed points under a
    generic point g."""
    rels = [((f"({p})"), "g") for p in primes]
    return validate_poset(rels)


def chain_poset(d: int) -> BalmerPoset:
    return validate_poset([(str(i), str(i + 1)) for i in range(d)],
                          elements=[str(i) for i in range(d + 1)])


def valrank2_poset() -> BalmerPoset:
    """The three-prime chain m < p < g of the rank-two valuation ring."""
    return validate_poset([("m", "p"), ("p", "g")])


def torus_poset(rank: int, samples: int) -> tuple[BalmerPoset, AssemblyData]:
    """A finite truncation of the subgroup poset of a torus under cotoral
    inclusion, with the identity-component assembly.

    Subgroups are sampled per stratum; the true poset has infinitely
    many members in every positive-dimension stratum, so the truncation
    is recorded by the sample parameters.  For rank 1 the samples are
    finite cyclic subgroups C_1..C_s under the full torus.  For rank 2
    the sample holds the trivial group, finite cyclics C_n, subtori
    H_(a,b) = {(z^a, z^b)}, one non-connected group H.C per subtorus
    when witnesses fit, and the full torus; cotorality of C_n in H_(a,b)
    is the divisibility n | b (with C_n embedded in the first factor).
    """
    if rank not in (1, 2):
        raise RangeError("rank must be 1 or 2")
    if samples < 1:
        raise RangeError("need at least one sample per stratum")
    if rank == 1:
        names = [f"C{n}" for n in range(1, samples + 1)]
        rels = [(c, "G") for c in names]
        P = validate_poset(rels)
        alpha = {c: "C1" for c in names}
        alpha["G"] = "G"
        return P, validate_assembly(P, frozenset({"C1", "G"}), alpha)
    # rank 2: subtori indexed by primitive vectors (1, k)
    subtori = [(1, k) for k in range(samples)]
    finite = [1] + [n + 2 for n in range(samples - 1)]   # orders of cyclic samples
    rels = []
    names_fin = {n: ("e" if n == 1 else f"C{n}") for n in finite}
    names_tor = {v: f"H{v[0]}{v[1]}" for v in subtori}
    nonconn = {}
    for q, name in names_fin.items():
        rels.append((name, "G"))
    for v, name in names_tor.items():
        rels.append((name, "G"))
        # C_n <= H_(a,b) cotorally iff C_n subset H, iff n | b
        for q, fname in names_fin.items():
            if q == 1 or (v[1] % q == 0 and q != 1):
                rels.append((fname, name))
    if samples > 1:
        # one non-connected subgroup H.C per first subtorus, witnessed by C
        v = subtori[0]
        q = finite[1]
        kname = f"H{v[0]}{v[1]}xC{q}"
        nonconn[kname] = v
        rels.append((kname, "G"))
        rels.append((names_fin[q], kname))   # C_q is cotoral in H.C_q
    P = validate_poset(rels)
    alpha = {}
    for q, name in names_fin.items():
        alpha[name] = "e"
    for v, name in names_tor.items():
        alpha[name] = name
    for kname, v in nonconn.items():
        alpha[kname] = names_tor[v]
    alpha["G"] = "G"
    sub = frozenset(list(names_tor.values()) + ["e", "G"])
    return P, validate_assembly(P, sub, alpha)


# -- JSON interfaces ----------------------------------------------------------------

def poset_from_json(doc: dict) -> BalmerPoset:
    els = [e["id"] for e in doc.get("elements", [])]
    rels = [tuple(r) for r in doc.get("relations", [])]
    return validate_poset(rels, elements=els)


def assembly_from_json(P: BalmerPoset, doc) -> AssemblyData:
    """{"subposet": [name, ...], "alpha": {name: name, ...}}.  A document of
    another shape, or whose subposet or alpha keys name an element outside
    P, raises a PosetError that is no AssemblyError; an assembly that
    fails the retraction, order or dimension conditions raises
    AssemblyError."""
    if not (isinstance(doc, dict) and isinstance(doc.get("subposet"), list)
            and isinstance(doc.get("alpha"), dict)
            and all(isinstance(x, str) for x in doc["subposet"])
            and all(isinstance(x, str) for x in doc["alpha"].values())):
        raise PosetError('an assembly is {"subposet": [names], "alpha": {name: name}}')
    for x in doc["alpha"]:
        P._check(x)
    return validate_assembly(P, frozenset(doc["subposet"]), dict(doc["alpha"]))


def load_poset(path) -> BalmerPoset:
    with open(path) as fh:
        return poset_from_json(json.load(fh))
