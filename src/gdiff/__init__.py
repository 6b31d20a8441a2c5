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
                          fiber, grothendieck_check, induce, roundtrip_iso,
                          transversal_independence, trivial_hmodule)
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

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
