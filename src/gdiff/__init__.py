"""Toolkit for linear difference equations with a finite symmetry group
acting transitively on a finite space.

Equations are free modules over the functions on the space, presented by
connection matrices; solving, decomposition, projection and the operator
calculus all reduce to finite linear algebra over exact rationals or
tolerance-compared complex numbers.
"""

from .equations import (Equation, act, complete_connection, direct_sum, dual,
                        hom, sym2, tensor, trivial_equation, wedge2, wedge_top)
from .equivalence import (HModule, builtin_irreducibles, character_hmodule,
                          fiber, induce, roundtrip_iso, trivial_hmodule)
from .errors import (BackendMismatch, CharacterBackendMismatch,
                     CompositionMismatch, ElementNotInH, GDiffError,
                     GroupTooLarge, InconsistentConnection, InvalidHModule,
                     NoIsoFound, NotASolution, NotHStable, NotInvariant,
                     NotTransitive, ProblemFileError, SingularGeneratorMatrix,
                     SplittingInconclusive, UnknownPower)
from .scalars import Backend
from .skewalg import SkewOp, skew_mul
from .solver import (Morphism, decompose, find_isomorphism, hom_space, image,
                     is_injective, is_isomorphism, is_simple, is_surjective,
                     kernel, symmetries)
from .space import (FiniteSpace, Group, Subgroup, Transversal,
                    dihedral_on_cycle, enumerate_group, stabilizer,
                    transversal)

# The exported names, the same set as README "Public API" lists.
__all__ = [
    "Backend", "BackendMismatch", "CharacterBackendMismatch",
    "CompositionMismatch", "ElementNotInH", "Equation", "FiniteSpace",
    "GDiffError", "Group", "GroupTooLarge", "HModule",
    "InconsistentConnection", "InvalidHModule", "Morphism", "NoIsoFound",
    "NotASolution", "NotHStable", "NotInvariant", "NotTransitive",
    "ProblemFileError", "SingularGeneratorMatrix", "SkewOp",
    "SplittingInconclusive", "Subgroup", "Transversal", "UnknownPower", "act",
    "builtin_irreducibles", "character_hmodule", "complete_connection",
    "decompose", "dihedral_on_cycle", "direct_sum", "dual", "enumerate_group",
    "fiber", "find_isomorphism", "hom", "hom_space", "image", "induce",
    "is_injective", "is_isomorphism", "is_simple", "is_surjective", "kernel",
    "roundtrip_iso", "skew_mul", "stabilizer", "sym2", "symmetries", "tensor",
    "transversal", "trivial_equation", "trivial_hmodule", "wedge2",
    "wedge_top",
]

__version__ = "0.1.0"
