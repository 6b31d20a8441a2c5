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
from typing import Dict, Tuple

import numpy as np

from . import linalg
from .equations import Equation, mul
from .equivalence import HModule, fiber
from .errors import CharacterBackendMismatch, CompositionMismatch, NotASolution
from .scalars import Backend
from .solver import Morphism, compose, image
from .space import Subgroup, transversal


@dataclass(frozen=True)
class Character:
    """Trace function of an H-module at the base point."""

    subgroup: Subgroup
    values: Dict[int, object]  # plain scalars, keyed by parent element id

    @property
    def dim(self):
        return self.values[0]


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


def factor_solution(eq: Equation, simple: Equation, psi: Morphism) -> Morphism:
    """Given psi on the isotypic image of Pi_S, return psi . Pi_S in
    Hom_A(eq, simple)."""
    be = eq.backend
    size = eq.group.space.size
    pi = frobenius_projection(eq, character(simple))
    img, emb = image(pi)
    # the corestriction of pi to its image, solved pointwise
    rows = []
    for y in range(size):
        emb_t = emb.matrix[y].T.tolist()
        for target in pi.at_point(y):
            x = linalg.solve(emb_t, target, be)
            if x is None:
                raise NotASolution("morphism does not factor through the image")
            rows.append(x)
    cores = Morphism(eq, img, np.array(rows, dtype=be.dtype)
                     .reshape(size, eq.rank, img.rank))
    cores.validate()
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
