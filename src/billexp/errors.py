"""Exception taxonomy shared across the package.

ValidationError subclasses map to CLI exit code 2, NumericalAbort subclasses
to exit code 3 (partial artifact written before raising).
"""


class BilliardError(Exception):
    pass


class ValidationError(BilliardError):
    pass


class NonDispersing(ValidationError):
    pass


class CuspDetected(ValidationError):
    pass


class NonSimpleCorner(ValidationError):
    pass


class OpenBoundary(ValidationError):
    pass


class UnboundedHorizon(ValidationError):
    pass


class OutOfRange(BilliardError):
    pass


class EscapedDomain(BilliardError):
    """Ray left the domain without a collision; valid tables never do this."""


class SectorBoundary(BilliardError):
    """Incoming direction within tolerance of a corner sector boundary."""


class SequenceOverflow(BilliardError):
    """Corner sequence exceeded the cap ceil(2*pi/gamma_min) + 2."""


class SingularInput(BilliardError):
    """Phase point on the singularity set where the requested branch forks."""


class SingularSeed(BilliardError):
    """Seed point too close to a singularity or strip boundary."""


class NumericalAbort(BilliardError):
    pass


class UnstablePortrait(NumericalAbort):
    """Sector combinatorics did not stabilize under radius halving."""


class ComponentExplosion(NumericalAbort):
    """Component count exceeded the hard cap during evolution."""


class NoSuchN(BilliardError):
    """No depth within the cap satisfies the contraction margin inequality."""
