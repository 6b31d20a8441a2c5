"""Scalar backends.

Two backends are supported: exact rationals (``fractions.Fraction``) and
complex floats compared with a tolerance.  All higher layers are generic
over the backend; values are plain Python scalars, the backend object only
supplies comparison, the tolerances, parsing and serialization (of an array
in one call).  Batched checks hold the same values in numpy arrays of
``Backend.dtype``; exact arithmetic on such arrays runs on Python integers
over one common denominator (``Backend.integral``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import BackendMismatch

RATIONAL = "rational"
COMPLEX = "complex"


@dataclass(frozen=True)
class Backend:
    """Scalar field tag plus the comparison tolerance for the float case.

    Tolerances: each decision the complex backend makes within eps is one
    method here (over the rationals eps is 0, comparisons are exact and
    the kernels read no threshold): ``eq_array``, |a - b| <= eps * (1 +
    max(|a|, |b|)), and ``is_zero``, |a| <= eps, elementwise;
    ``rank_tol``, max(eps, 1e-8 * largest singular value), for
    ``linalg``'s rank, nullspace, inv and any_singular; ``residual_tol``,
    eps * scale * 1e3 with scale 1 plus the largest entry of the data, for
    ``linalg.solve`` and ``RowSpace``; ``eigenvalue_tol``, max(eps * 1e3,
    1e-7) * scale with scale 1 plus the largest modulus, which separates
    the roots of ``solver``'s splitting.

    Arrays: ``dtype`` is complex, or object over the rationals.  An exact
    array is kept as Python ints over one common denominator d, so that
    batched products and comparisons multiply ints, never ``Fraction``
    objects: ``integral`` writes an array of ``Fraction`` objects in that
    form, with d least, ``reduce`` brings any (ints, d) pair to the same
    form, so equal arrays of values have equal (ints, d), and ``to_scalars``
    turns (ints, d) back into ``Fraction`` objects (``scalar_array`` into
    an array of them).  A connection is stored in that form
    (``equations.Equation``); a morphism's matrix holds the scalars
    themselves (``solver.Morphism``).  Complex arrays pass through all
    three unchanged, with d = 1.
    """

    name: str
    eps: float = 1e-9

    @staticmethod
    def rational() -> "Backend":
        return Backend(RATIONAL, 0.0)

    @staticmethod
    def complex(eps: float = 1e-9) -> "Backend":
        return Backend(COMPLEX, eps)

    @property
    def exact(self) -> bool:
        return self.name == RATIONAL

    def zero(self):
        return Fraction(0) if self.exact else 0j

    def one(self):
        return Fraction(1) if self.exact else 1 + 0j

    def coerce(self, value):
        """Coerce a Python number into this backend's scalar type."""
        if self.exact:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            if isinstance(value, str):
                return Fraction(value)
            raise BackendMismatch(f"cannot coerce {value!r} to a rational scalar")
        if isinstance(value, complex):
            return value
        if isinstance(value, (int, float, Fraction)):
            return complex(value)
        if isinstance(value, str):
            return complex(Fraction(value))
        raise BackendMismatch(f"cannot coerce {value!r} to a complex scalar")

    @property
    def dtype(self):
        """numpy dtype of an array of scalars: Fractions are kept as objects."""
        return object if self.exact else complex

    def integral(self, arr: np.ndarray) -> Tuple[np.ndarray, int]:
        """(A, d) with arr == A / d: over the rationals d is the lcm of the
        entries' denominators and A = d * arr, Python ints in an object
        array of arr's shape; on the complex backend (arr, 1)."""
        if not self.exact:
            return arr, 1
        flat = arr.ravel().tolist()
        d = math.lcm(*(x.denominator for x in flat))
        ints = [x.numerator * (d // x.denominator) for x in flat]
        return np.array(ints, dtype=object).reshape(arr.shape), d

    def reduce(self, arr: np.ndarray, d: int = 1) -> Tuple[np.ndarray, int]:
        """(A, d') with A / d' == arr / d and d' least, for an object array
        of Python ints over the rationals: the greatest common divisor of d
        and every entry divided out.  On the complex backend (arr, d)."""
        if not self.exact or d == 1:
            return arr, d
        common = math.gcd(d, *arr.ravel().tolist())
        if common == 1:
            return arr, d
        return arr // common, d // common

    def scalar_array(self, arr: np.ndarray, d: int = 1) -> np.ndarray:
        """arr / d as an array of ``dtype`` and arr's shape: ``Fraction``
        objects for an array of Python ints over the rationals, a complex
        array (d = 1) as it is."""
        if not self.exact:
            return arr
        return np.frompyfunc(lambda x: Fraction(x, d), 1, 1)(arr)

    def eye(self, n: int) -> np.ndarray:
        """The n x n identity as an array of scalars: ``Fraction`` objects
        over the rationals, complex128 otherwise."""
        return self.scalar_array(np.eye(n, dtype=self.dtype))

    def to_scalars(self, arr: np.ndarray, d: int = 1) -> list:
        """arr / d as nested lists of scalars: ``Fraction`` objects for an
        array of Python ints over the rationals, Python complex numbers for
        a complex array (d = 1)."""
        return self.scalar_array(arr, d).tolist()

    def eq_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether a and b, two arrays of ``dtype``, are equal elementwise,
        as a bool array: exactly over the rationals, else within
        eps * (1 + max(|a|, |b|))."""
        if self.exact:
            return a == b
        return np.abs(a - b) <= self.eps * (1 + np.maximum(np.abs(a), np.abs(b)))

    def is_zero(self, a):
        """Whether a scalar is zero; elementwise, as a bool array, on an
        array of ``dtype``."""
        if self.exact:
            return a == 0
        return abs(a) <= self.eps

    def rank_tol(self, s: np.ndarray) -> np.ndarray:
        """Rank threshold of singular values s, along their last axis."""
        return np.maximum(self.eps, 1e-8 * s.max(axis=-1, initial=0.0))

    def residual_tol(self, scale: float) -> float:
        """Largest residual that counts as zero, for data of that scale."""
        return self.eps * scale * 1e3

    def eigenvalue_tol(self, scale: float) -> float:
        """Distance within which two eigenvalues of that scale are one."""
        return max(self.eps * 1e3, 1e-7) * scale

    def parse(self, obj):
        """Parse a scalar from problem-file JSON ("p/q" string or [re, im])."""
        if isinstance(obj, str):
            return self.coerce(Fraction(obj))
        if isinstance(obj, bool):
            raise BackendMismatch(f"not a scalar: {obj!r}")
        if isinstance(obj, int):
            return self.coerce(obj)
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            if self.exact:
                raise BackendMismatch("complex literal in a rational problem")
            return complex(float(obj[0]), float(obj[1]))
        if isinstance(obj, float):
            if self.exact:
                raise BackendMismatch("float literal in a rational problem")
            return complex(obj)
        raise BackendMismatch(f"not a scalar: {obj!r}")

    def serialize(self, a):
        """An array of scalars (one scalar is the 0-d case) as nested lists,
        in one call: "p/q" strings over the rationals, [re, im] on the
        complex backend; anything else is a TypeError, as in ``json``."""
        if not isinstance(a, (np.ndarray, Fraction if self.exact else complex)):
            raise TypeError(f"{type(a).__name__} is no array of scalars")
        if self.exact:
            return np.asarray(np.frompyfunc(str, 1, 1)(a), dtype=object).tolist()
        return np.stack((a.real, a.imag), -1).tolist()

    def random(self, rng: random.Random):
        """Small random scalar, nonzero-biased; used for seeded searches."""
        if self.exact:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return complex(rng.randint(-4, 4), rng.randint(-2, 2))

    def check_same(self, other: "Backend") -> None:
        if self.name != other.name:
            raise BackendMismatch(f"{self.name} vs {other.name}")
