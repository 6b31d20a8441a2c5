"""Exception types shared across the toolkit."""


class GDiffError(Exception):
    """Base class for all toolkit errors."""


class BackendMismatch(GDiffError):
    """Operands carry different scalar backends."""


class NotTransitive(GDiffError):
    """The generated permutation group does not act transitively."""


class GroupTooLarge(GDiffError):
    """Group enumeration exceeded the configured cap."""


class InconsistentConnection(GDiffError):
    """Generator matrices violate the cocycle law."""


class SingularGeneratorMatrix(GDiffError):
    """A generator matrix is singular at some point."""


class InvalidHModule(GDiffError):
    """Stabilizer matrices fail the module laws: rho(e) = I, invertibility,
    rho(ab) = rho(b) rho(a)."""


class NotHStable(GDiffError):
    """A row subspace of a fiber is not stable under the stabilizer."""


class CompositionMismatch(GDiffError):
    """The first morphism's target is not the second morphism's source."""


class ElementNotInH(GDiffError):
    """Transversal arithmetic produced an element outside the stabilizer."""


class NoIsoFound(GDiffError):
    """No isomorphism found where the theory guarantees one."""


class SplittingInconclusive(GDiffError):
    """No separating endomorphism found within the retry budget."""


class CharacterBackendMismatch(GDiffError):
    """Character values are not representable in the requested backend."""


class NotASolution(GDiffError):
    """A morphism argument fails the intertwining equation."""


class NotInvariant(GDiffError):
    """A structure argument is not fixed by the group action."""


class UnknownPower(GDiffError):
    """An invariant structure of a power other than sym2 and wedge_top."""


class ProblemFileError(GDiffError):
    """Problem file failed to parse or validate."""
