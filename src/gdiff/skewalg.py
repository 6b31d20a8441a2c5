"""The skew group algebra A = F(S)[G]: formal sums of group elements with
function coefficients, the twisted product, and the action on functions.
A function is an (|S|,) array of ``Backend.dtype`` scalars; products of
values are ``equations.mul``, which rounds as Python's complex product."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .equations import mul, read_only
from .scalars import Backend
from .space import Group


@dataclass(frozen=True, eq=False)
class SkewOp:
    """Finite formal sum sum_g a_g . g with a_g in k: ``elements`` the ids
    g, ascending, and ``coeffs`` a read-only (len(elements), |S|) array,
    row r the function a_{elements[r]}; zero terms pruned."""

    group: Group
    backend: Backend
    elements: Tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", read_only(self.coeffs))

    @staticmethod
    def from_terms(group: Group, backend: Backend,
                   terms: Dict[int, np.ndarray]) -> "SkewOp":
        """The sum of a_g . g over {g: a_g}, each a_g an (|S|,) array of
        backend scalars; a term whose a_g is zero at every point
        (``Backend.is_zero``) is dropped."""
        ids = [g for g in sorted(terms)
               if not np.all(backend.is_zero(terms[g]))]
        coeffs = np.empty((len(ids), group.space.size), dtype=backend.dtype)
        for row, g in zip(coeffs, ids):
            row[:] = terms[g]
        return SkewOp(group, backend, tuple(ids), coeffs)

    @staticmethod
    def of_element(group: Group, backend: Backend, g: int) -> "SkewOp":
        ones = np.full(group.space.size, backend.one(), dtype=backend.dtype)
        return SkewOp.from_terms(group, backend, {g: ones})

    def __add__(self, other: "SkewOp") -> "SkewOp":
        self.backend.check_same(other.backend)
        out = dict(zip(self.elements, self.coeffs))
        for g, f in zip(other.elements, other.coeffs):
            out[g] = out[g] + f if g in out else f
        return SkewOp.from_terms(self.group, self.backend, out)

    def __neg__(self) -> "SkewOp":
        return SkewOp(self.group, self.backend, self.elements, -self.coeffs)

    def __sub__(self, other: "SkewOp") -> "SkewOp":
        return self + (-other)

    def eq(self, other: "SkewOp") -> bool:
        return (self - other).elements == ()


def _moved(a: SkewOp, f: np.ndarray) -> np.ndarray:
    """g(f) for every element g of a, stacked: entry [r, ..., x] is
    f[..., g^-1 x] with g = a.elements[r]."""
    group = a.group
    ginv = group.elements[np.array(group.inv)[list(a.elements)]]
    return np.moveaxis(f[..., ginv], -2, 0)


def skew_mul(a: SkewOp, b: SkewOp) -> SkewOp:
    """(f g)(h g') = (f . g(h)) gg', extended bilinearly: the products of
    all pairs of terms in one batch, added into gg' pair after pair, a's
    terms outermost."""
    a.backend.check_same(b.backend)
    products = mul(a.coeffs[:, None], _moved(a, b.coeffs), a.backend)
    keys = a.group.mul_ids(np.array(a.elements, dtype=np.intp)[:, None],
                           np.array(b.elements, dtype=np.intp)[None, :])
    out: Dict[int, np.ndarray] = {}
    for key, prod in zip(keys.ravel().tolist(),
                         products.reshape(-1, a.group.space.size)):
        out[key] = out[key] + prod if key in out else prod
    return SkewOp.from_terms(a.group, a.backend, out)


def apply(a: SkewOp, f: np.ndarray) -> np.ndarray:
    """(sum_g a_g g) f = sum_g a_g . g(f), for f an (|S|,) array of backend
    scalars, summed term after term from zero."""
    out = np.full(a.group.space.size, a.backend.zero(), dtype=a.backend.dtype)
    for term in mul(a.coeffs, _moved(a, f), a.backend):
        out = out + term
    return out
