"""Exception types shared across the package."""


class RefdepError(Exception):
    """Base class for all library errors."""


class ValidationError(RefdepError):
    """A dataset or parameter file failed an invariant check."""


class EmptyChoice(ValidationError):
    pass


class ChoiceOutsideMenu(ValidationError):
    pass


class DuplicateMenu(ValidationError):
    pass


class MixedPayloadKinds(ValidationError):
    pass


class UnobservedMenu(RefdepError):
    pass


class UnionUnobserved(RefdepError):
    pass


class UnknownAlternative(RefdepError):
    pass


class UnknownLottery(UnknownAlternative):
    pass


class UnknownFixture(RefdepError):
    pass


class PrizeSetMismatch(ValidationError):
    pass


class NotIncreasing(ValidationError):
    pass


class NotATriangle(RefdepError):
    pass


class EmptyPsi(RefdepError):
    """A cycle left a pool without an admissible member.

    Raised when the relation of a Psi map has a cycle on a dataset (each
    member of the cycle is beaten by another, so a pool holding just them
    admits none), and when the risk-consistency constraints that the AREU
    fitter forces on the reference order are cyclic.  The built-in
    relations and constraints come from the risk, time and Gini orders,
    so from them it signals an internal inconsistency, not bad user data.
    """


class NotSubsetClosed(RefdepError):
    pass


class UniverseTooLarge(RefdepError):
    pass


class MultiValuedChoice(RefdepError):
    pass


class SynthesisFailed(RefdepError):
    """Reference-order layering found a pool with no candidate although
    the axiom holds on the (partial) observations."""


class AxiomFails(RefdepError):
    """A fitter's precondition axiom battery found violations.

    Carries the witness list so callers can report which axiom broke.
    """

    def __init__(self, axiom, witnesses):
        self.axiom = axiom
        self.witnesses = list(witnesses)
        super().__init__(f"{axiom}: {len(self.witnesses)} violation(s)")


class InfeasibleFit(RefdepError):
    """No parameterization certifies the dataset; a proof except on AREU grids of 4+ prizes."""

    def __init__(self, detail=""):
        self.detail = detail
        super().__init__(detail or "no feasible parameterization")
