"""Exception types shared across the package.

``cli.EXIT_TABLE`` maps each to an exit code. A witness the package builds
is checked again before it is returned; ``ReverifyFailed`` means the check
rejected it, a defect in the search and not a negative answer.
"""


class RinglabError(Exception):
    """Base class for every package-specific error."""


class ParseError(RinglabError):
    """Malformed ring spec, element string, polynomial, or input file."""


class MixedRings(RinglabError):
    """Operands belong to two different ring handles."""


class UnsupportedSpec(RinglabError):
    """Spec parses but names a ring or operation outside the supported set."""


class AxiomViolation(RinglabError):
    """A ring failed an axiom or structural check.

    Raised by the exhaustive axiom check of a table ring at load time, by
    the ideal check of a quotient, and by the structural checks on a
    finite ring's cache (enumeration, radical, units).
    """


class TooLarge(RinglabError):
    """Finite ring exceeds the configured enumeration bound."""


class NotBezout(RinglabError):
    """No Bezout gcd witness exists (or is computable) for the request."""


class NotComaximal(RinglabError):
    """A pair required to be comaximal is not."""


class ZeroInput(RinglabError):
    """An argument required to be nonzero was zero."""


class ZeroIntegerPart(RinglabError):
    """Dual-integer adequacy asked for an element with zero integer part."""


class ReverifyFailed(RinglabError):
    """A predicate payload or a witness the package built failed its re-check."""


class NoResidue(RinglabError):
    """No residue shift r with (b + a*r) comaximal to c exists."""


class ReductionFailed(RinglabError):
    """Diagonal reduction hit an irreducible block.

    Attributes:
        witness: the offending submatrix (a RingMatrix), when available.
        reason: short description of the failed step.
    """

    def __init__(self, reason, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness
