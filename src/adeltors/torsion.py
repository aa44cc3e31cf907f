"""The torsion model: build, validate, identify, reconstruct.

tors(X) is the iterated cofibre of the adelic cube tensored with X.
A diagram on I(d) is in the model when every adjoint structure map
along an oplax arrow is a homology isomorphism and each vertex i^i is
torsion for the dimension-i filtration; both conditions are certified
(failures are data, not exceptions).  An adjoint map is certified as an
isomorphism of complexes when it relabels strands, otherwise as a chain
map with an acyclic cone (adelic.adjoint_iso).  Reconstruction runs the fibre
functor independently of how the diagram was built, takes the punctured
limit, and compares homology with the original object degreewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .adelic import AdelicCube, adjoint_iso
from .classes import GradedClasses
from .complexes import ChainComplex
from .homology import homology, is_acyclic
from .localize import Site
from .shapes import (CubeDiagram, Vertex, big_L, big_R, holim_punctured,
                     is_cofibre_layer)


class ValidateFailed(ValueError):
    pass


def tors(site: Site, X: ChainComplex, cube: AdelicCube) -> CubeDiagram:
    """The torsion diagram of X: iterated cofibres of the adelic tensor."""
    return big_L(cube.tensor(X))


@dataclass
class ValidationReport:
    adjoint: dict[tuple[str, str], bool] = field(default_factory=dict)
    torsion: dict[str, bool] = field(default_factory=dict)
    layers: dict[int, bool] = field(default_factory=dict)
    commutes: bool = True

    @property
    def ok(self) -> bool:
        return (self.commutes and all(self.adjoint.values())
                and all(self.torsion.values()) and all(self.layers.values()))

    def to_json(self):
        return {"check": "torsion-model-membership", "ok": self.ok,
                "commutes": self.commutes,
                "adjoint": {f"{s}->{t}": v for (s, t), v in sorted(self.adjoint.items())},
                "torsion": dict(sorted(self.torsion.items())),
                "layers": {str(k): v for k, v in sorted(self.layers.items())}}


def validate(site: Site, TD: CubeDiagram, cube: AdelicCube) -> ValidationReport:
    """Certify the two membership conditions plus the cofibre layers; each
    oplax adjoint is an isomorphism of complexes or has an acyclic cone."""
    rep = ValidationReport()
    rep.commutes = TD.check_commutes()
    d = TD.shape.d
    for (s, t, kind) in TD.shape.arrows:
        if kind == "oplax":
            rep.adjoint[(s, t)] = adjoint_iso(cube, TD, s, t)
    for i in range(d + 1):
        name = Vertex((i,), i).name
        if name not in TD.values:
            continue
        M = TD.value(name)
        if i == d:
            rep.torsion[name] = True
        else:
            rep.torsion[name] = is_acyclic(site.l_ge(i + 1, M))
    for k in range(0, max(d - 1, 0)):
        rep.layers[k] = is_cofibre_layer(TD, k)
    return rep


@dataclass
class VertexReport:
    vertex: str
    got: GradedClasses
    want: GradedClasses

    @property
    def agree(self) -> bool:
        return self.got == self.want

    def to_json(self):
        return {"check": "torsion-vertex-formula", "vertex": self.vertex,
                "agree": self.agree, "got": self.got.to_json(),
                "want": self.want.to_json()}


def one_tors_vertex(site: Site, A, i: int, cube: AdelicCube, TD: CubeDiagram) -> VertexReport:
    """The unit's torsion diagram TD at A^i against the identification
    with the (d-i)-fold suspension of the filtration-i torsion of the
    adelic ring at A."""
    d = site.poset.dimension
    name = Vertex(tuple(sorted(A)), i).name
    got = homology(TD.value(name))
    ring = cube.ring_complex(tuple(sorted(A)))
    want = homology(site.gamma_le(i, ring)).shift(d - i)
    return VertexReport(name, got, want)


@dataclass
class RoundTripReport:
    validation: ValidationReport
    got: GradedClasses
    want: GradedClasses

    @property
    def agree(self) -> bool:
        return self.got == self.want

    def to_json(self):
        return {"check": "torsion-roundtrip", "agree": self.agree,
                "membership_ok": self.validation.ok,
                "got": self.got.to_json(), "want": self.want.to_json()}


def reconstruct(site: Site, TD: CubeDiagram, X: ChainComplex, cube: AdelicCube,
                require_valid: bool = True) -> RoundTripReport:
    """Fibres then limit, compared against X; the fibre pass is built
    independently of the cofibre pass so the round trip is a real check."""
    val = validate(site, TD, cube)
    if require_valid and not val.ok:
        raise ValidateFailed("diagram fails the membership certificates")
    pc = big_R(TD)
    lim = holim_punctured(pc)
    return RoundTripReport(val, homology(lim), homology(X))


def cousin_report(site: Site, X: ChainComplex) -> dict:
    """Per-dimension layer classes H_*(Gamma_p L_p X): the local
    cohomology of the localizations, dimension by dimension."""
    out: dict[str, dict] = {}
    P = site.poset
    for i in range(P.dimension + 1):
        layer = {}
        for p in P.canonical_order(P.of_dim(i)):
            cls = homology(site.gamma_at(p, site.l_at(p, X)))
            layer[p] = cls.to_json()
        out[str(i)] = layer
    return {"check": "cousin-layers", "backend": site.backend,
            "truncation": list(site.T), "layers": out}


def chromatic_report(n: int) -> dict:
    """The chain spectrum of height n, formal labels only: the layer at
    poset dimension i is the monochromatic slot of height n - i."""
    slots = {str(i): f"monochromatic layer M_{n - i} (suspended {n - i} times)"
             for i in range(n + 1)}
    return {"check": "chromatic-chain-labels", "height": n, "slots": slots,
            "note": "formal indexing only; no homotopy groups computed"}
