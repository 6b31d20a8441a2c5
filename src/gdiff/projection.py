"""Characters of fibers and the Frobenius projection onto isotypic parts.

The projection attached to a simple character chi of the stabilizer H is,
pointwise at y with sigma the transversal and d' = chi(e):

    Pi(y) = (d'/|H|) . sum_{h in H} chi(h^{-1}) . E^{sigma(y) h sigma(y)^{-1}}(y)

which is an A-endomorphism of E.  An equivalent route conjugates the
base-fiber projection by the transport matrix T(y) = E^{sigma(y)}(y); both
are implemented so tests can compare them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from .equations import Equation, KMatrix
from .equivalence import HModule, fiber
from .errors import CharacterBackendMismatch
from .scalars import Backend
from .solver import (Morphism, compose, factor_through_image,
                     identity_morphism, image)
from .space import Subgroup, Transversal, transversal


@dataclass(frozen=True)
class Character:
    """Trace function of an H-module at the base point."""

    subgroup: Subgroup
    values: Dict[int, object]  # plain scalars, keyed by parent element id

    @property
    def dim(self):
        return self.values[0]

    def transported(self, y: int, h_y: int, sig: Transversal):
        """chi_y(h_y) = chi(sigma(y)^{-1} h_y sigma(y))."""
        group = self.subgroup.group
        s = sig.sigma[y]
        h = group.mul(group.inv[s], h_y, s)
        return self.values[h]

    def __add__(self, other: "Character") -> "Character":
        return Character(self.subgroup,
                         {h: self.values[h] + other.values[h] for h in self.values})


def character_of_hmodule(mod: HModule) -> Character:
    vals = {h: sum((mod.rho[h][i][i] for i in range(mod.dim)),
                   mod.backend.zero()) for h in mod.subgroup.members}
    return Character(mod.subgroup, vals)


def character(eq: Equation) -> Character:
    return character_of_hmodule(fiber(eq))


def _chi_scalar(value, backend: Backend):
    """Coerce a character value into the equation's backend or refuse."""
    if backend.exact:
        if isinstance(value, complex):
            if value.imag != 0 or value.real != int(value.real):
                raise CharacterBackendMismatch(
                    "irrational character value needs the complex backend")
            return Fraction(int(value.real))
        return Fraction(value)
    return complex(value)


def frobenius_projection(eq: Equation, chi: Character) -> Morphism:
    """The character-weighted average over the conjugated stabilizer at
    each point, returned as a verified A-endomorphism."""
    group = eq.group
    be = eq.backend
    sub = chi.subgroup
    sig = transversal(group)
    dprime = _chi_scalar(chi.dim, be)
    coeff = dprime / _chi_scalar(sub.order, be)
    size = group.space.size
    mats = []
    for y in range(size):
        s = sig.sigma[y]
        sinv = group.inv[s]
        acc = linalg.zeros(eq.rank, eq.rank, be)
        conjugates = eq.scalars(([group.mul(s, h, sinv) for h in sub.members], y))
        for h, mat in zip(sub.members, conjugates):
            w = coeff * _chi_scalar(chi.values[sub.inv(h)], be)
            acc = linalg.mat_add(acc, linalg.mat_scale(w, mat))
        mats.append(acc)
    pi = Morphism(eq, eq, KMatrix.from_point_matrices(mats, be))
    pi.validate()
    return pi


def fiber_projection_route(eq: Equation, chi: Character) -> Morphism:
    """Independent route: project in the base fiber, conjugate by transport.

    Pi(y) = T(y)^{-1} . P . T(y) with T(y) = E^{sigma(y)}(y) and P the
    base-fiber isotypic projection.
    """
    group = eq.group
    be = eq.backend
    sub = chi.subgroup
    sig = transversal(group)
    fib = fiber(eq)
    coeff = _chi_scalar(chi.dim, be) / _chi_scalar(sub.order, be)
    p = linalg.zeros(eq.rank, eq.rank, be)
    for h in sub.members:
        w = coeff * _chi_scalar(chi.values[sub.inv(h)], be)
        p = linalg.mat_add(p, linalg.mat_scale(w, fib.rho[h]))
    mats = []
    for y, t in enumerate(eq.scalars((list(sig.sigma),
                                      list(range(group.space.size))))):
        tinv = linalg.inv(t, be)
        mats.append(linalg.mat_mul(tinv, linalg.mat_mul(p, t, be), be))
    pi = Morphism(eq, eq, KMatrix.from_point_matrices(mats, be))
    pi.validate()
    return pi


def _restriction_is_scalar(emb: Morphism, pi: Morphism, scalar) -> bool:
    """emb . pi == scalar . emb as matrices over k."""
    lhs = emb.matrix.mul(pi.matrix)
    rhs = emb.matrix.scale(scalar)
    return lhs.eq(rhs)


def schur_check(amb: Equation, summands: List[Tuple[Equation, Morphism]]
                ) -> Dict[str, bool]:
    """Orthogonality relations for the projections of the summand characters
    inside the ambient equation amb = (+) summands."""
    projections = [frobenius_projection(amb, character(s)) for s, _ in summands]
    report: Dict[str, bool] = {}
    ident = identity_morphism(amb).matrix
    for i, pi in enumerate(projections):
        report[f"idempotent_{i}"] = pi.matrix.mul(pi.matrix).eq(pi.matrix)
        for j, pj in enumerate(projections):
            if i != j:
                report[f"orthogonal_{i}_{j}"] = pi.matrix.mul(pj.matrix).is_zero()
    for i, pi in enumerate(projections):
        for j, (_, emb) in enumerate(summands):
            want = amb.backend.one() if i == j else amb.backend.zero()
            report[f"restriction_{i}_{j}"] = _restriction_is_scalar(emb, pi, want)
    total = projections[0].matrix
    for pi in projections[1:]:
        total = total.add(pi.matrix)
    report["complete"] = total.eq(ident)
    return report


def factor_solution(eq: Equation, simple: Equation, psi: Morphism) -> Morphism:
    """Given psi on the isotypic image of Pi_S, return psi . Pi_S in
    Hom_A(eq, simple)."""
    pi = frobenius_projection(eq, character(simple))
    img, emb = image(pi)
    cores = factor_through_image(pi, img, emb)
    # psi may come from hom_space on an equal-connection copy of the image
    if psi.source is not img and psi.source != img:
        raise ValueError("psi is not defined on the isotypic image")
    out = compose(cores, Morphism(img, psi.target, psi.matrix))
    out.validate()
    return out


def isotypic_image(eq: Equation, simple: Equation) -> Tuple[Equation, Morphism]:
    """The image of the Frobenius projection for the character of `simple`."""
    pi = frobenius_projection(eq, character(simple))
    return image(pi)
