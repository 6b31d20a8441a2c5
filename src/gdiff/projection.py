"""Characters of fibers and the Frobenius projection onto isotypic parts.

The projection attached to a simple character chi of the stabilizer H is,
pointwise at y with sigma the transversal and d' = chi(e):

    Pi(y) = (d'/|H|) . sum_{h in H} chi(h^{-1}) . E^{sigma(y) h sigma(y)^{-1}}(y)

which is an A-endomorphism of E.  (The tests compare it with a second
route, which conjugates the base-fiber projection by the transport matrix
T(y) = E^{sigma(y)}(y).)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .equations import Equation, matmul, mul
from .equivalence import HModule, fiber
from .errors import CharacterBackendMismatch, CompositionMismatch
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
    """The traces of the rho matrices, each summed from zero in order."""
    be = mod.backend
    traces = np.full(mod.subgroup.order, be.zero(), dtype=be.dtype)
    for i in range(mod.dim):
        traces = traces + mod.rho[:, i, i]
    return Character(mod.subgroup, dict(zip(mod.subgroup.members,
                                            traces.tolist())))


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
    each point, returned as a verified A-endomorphism: one gather of the
    conjugates' connection matrices at all points, then a sum over h in the
    order of ``subgroup.members`` (on Python ints over the rationals)."""
    group = eq.group
    be = eq.backend
    sub = chi.subgroup
    sigma = np.array(transversal(group).sigma)
    coeff = _chi_scalar(chi.dim, be) / _chi_scalar(sub.order, be)
    weights = np.array([coeff * _chi_scalar(chi.values[sub.inv(h)], be)
                        for h in sub.members], dtype=be.dtype)
    conj = group.mul_ids(sigma[:, None], np.array(sub.members)[None, :],
                         np.array(group.inv)[sigma][:, None])
    points = np.arange(group.space.size)[:, None]
    conjugates, d_eq = eq.integral((conj, points))
    weights, d = be.integral(weights)
    acc = np.zeros(conjugates.shape[:1] + conjugates.shape[2:], dtype=be.dtype)
    for k in range(len(sub.members)):
        acc = acc + mul(weights[k], conjugates[:, k], be)
    pi = Morphism(eq, eq, be.scalar_array(acc, d * d_eq))
    pi.validate()
    return pi


def schur_check(amb: Equation, summands: List[Tuple[Equation, Morphism]]
                ) -> Dict[str, bool]:
    """Orthogonality relations for the projections of the summand characters
    inside the ambient equation amb = (+) summands."""
    be = amb.backend
    projections = [frobenius_projection(amb, character(s)).matrix
                   for s, _ in summands]
    report: Dict[str, bool] = {}
    for i, pi in enumerate(projections):
        report[f"idempotent_{i}"] = bool(
            be.eq_array(matmul(pi, pi, be), pi).all())
        for j, pj in enumerate(projections):
            if i != j:
                report[f"orthogonal_{i}_{j}"] = bool(
                    be.is_zero(matmul(pi, pj, be)).all())
    # emb_j . pi_i == delta_ij emb_j
    for i, pi in enumerate(projections):
        for j, (_, emb) in enumerate(summands):
            want = np.array(be.one() if i == j else be.zero(), dtype=be.dtype)
            report[f"restriction_{i}_{j}"] = bool(be.eq_array(
                matmul(emb.matrix, pi, be), mul(want, emb.matrix, be)).all())
    report["complete"] = bool(be.eq_array(
        sum(projections[1:], projections[0]), identity_morphism(amb).matrix).all())
    return report


def factor_solution(eq: Equation, simple: Equation, psi: Morphism) -> Morphism:
    """Given psi on the isotypic image of Pi_S, return psi . Pi_S in
    Hom_A(eq, simple)."""
    pi = frobenius_projection(eq, character(simple))
    img, emb = image(pi)
    cores = factor_through_image(pi, img, emb)
    # psi may come from hom_space on an equal-connection copy of the image
    if psi.source is not img and psi.source != img:
        raise CompositionMismatch("psi is not defined on the isotypic image")
    out = compose(cores, Morphism(img, psi.target, psi.matrix))
    out.validate()
    return out


def isotypic_image(eq: Equation, simple: Equation) -> Tuple[Equation, Morphism]:
    """The image of the Frobenius projection for the character of `simple`."""
    pi = frobenius_projection(eq, character(simple))
    return image(pi)
