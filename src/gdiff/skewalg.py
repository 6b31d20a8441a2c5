"""The skew group algebra A = F(S)[G]: formal sums of group elements with
function coefficients, the twisted product, and the action on functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .scalars import Backend, Fn
from .space import Group, act_on_function


@dataclass(frozen=True)
class SkewOp:
    """Finite formal sum sum_g a_g . g with a_g in k; zero terms pruned."""

    group: Group
    backend: Backend
    terms: Tuple[Tuple[int, Fn], ...]  # sorted by element id

    @staticmethod
    def from_terms(group: Group, backend: Backend, terms: Dict[int, Fn]) -> "SkewOp":
        pruned = {g: f for g, f in terms.items() if not f.is_zero()}
        return SkewOp(group, backend, tuple(sorted(pruned.items())))

    @staticmethod
    def zero(group: Group, backend: Backend) -> "SkewOp":
        return SkewOp(group, backend, ())

    @staticmethod
    def of_element(group: Group, backend: Backend, g: int) -> "SkewOp":
        return SkewOp.from_terms(group, backend, {g: Fn.one(group.space.size, backend)})

    @staticmethod
    def of_function(group: Group, f: Fn) -> "SkewOp":
        """Embed k into A as coefficients over the identity."""
        return SkewOp.from_terms(group, f.backend, {0: f})

    def coeff(self, g: int) -> Fn:
        for h, f in self.terms:
            if h == g:
                return f
        return Fn.zero(self.group.space.size, self.backend)

    def __add__(self, other: "SkewOp") -> "SkewOp":
        self.backend.check_same(other.backend)
        out = {g: f for g, f in self.terms}
        for g, f in other.terms:
            out[g] = out[g] + f if g in out else f
        return SkewOp.from_terms(self.group, self.backend, out)

    def __neg__(self) -> "SkewOp":
        return SkewOp(self.group, self.backend, tuple((g, -f) for g, f in self.terms))

    def __sub__(self, other: "SkewOp") -> "SkewOp":
        return self + (-other)

    def scale(self, c) -> "SkewOp":
        return SkewOp.from_terms(self.group, self.backend,
                                 {g: f.scale(c) for g, f in self.terms})

    def eq(self, other: "SkewOp") -> bool:
        return (self - other).terms == ()


def skew_mul(a: SkewOp, b: SkewOp) -> SkewOp:
    """(f g)(h g') = (f . g(h)) gg', extended bilinearly."""
    a.backend.check_same(b.backend)
    group = a.group
    out: Dict[int, Fn] = {}
    for g, f in a.terms:
        for gp, h in b.terms:
            gh = f * act_on_function(group, g, h)
            key = group.mul(g, gp)
            out[key] = out[key] + gh if key in out else gh
    return SkewOp.from_terms(group, a.backend, out)


def apply(a: SkewOp, f: Fn) -> Fn:
    """(sum_g a_g g) f = sum_g a_g . g(f)."""
    a.backend.check_same(f.backend)
    out = Fn.zero(a.group.space.size, a.backend)
    for g, coeff in a.terms:
        out = out + coeff * act_on_function(a.group, g, f)
    return out
