"""Exception taxonomy shared by all bozon modules."""

from __future__ import annotations


class BozonError(Exception):
    """Base class for all errors raised by this package."""


# --- combinatorial map construction ---------------------------------------

class MalformedRotation(BozonError):
    """Rotation system or dart/edge tables are inconsistent."""


class SelfLoopRejected(MalformedRotation):
    """Input graph contains a self-loop, which is not accepted on input."""


class EulerViolation(BozonError):
    """V - E + F != 2: the rotation system does not describe a sphere."""


class Disconnected(BozonError):
    """The underlying graph is not connected."""


# --- defect paths ----------------------------------------------------------

class PathHasLoop(BozonError):
    """A defect path revisits a vertex."""


class PathsIntersect(BozonError):
    """Defect paths are not disjoint (shared vertices, or an order edge
    crossed by a disorder path)."""


class EndpointMismatch(BozonError):
    """Path edges do not chain between the declared endpoints."""


class LengthMismatch(BozonError):
    """Two sequences that must be aligned have different lengths."""


class OverlapError(BozonError):
    """Order and disorder defect edge sets overlap."""


# --- couplings -------------------------------------------------------------

class NonPositiveCoupling(BozonError):
    """A base coupling is not a finite, strictly positive real number."""


class CouplingUnderflow(BozonError):
    """A derived coupling underflows to 0 in floating point."""


# --- enumeration limits ----------------------------------------------------

class TooLarge(BozonError):
    """A frontier sweep would hold more than STATE_CAP states."""


# --- dimers ----------------------------------------------------------------

class BridgeUnsupported(BozonError):
    """The quadrangle dimer construction requires a bridge-free graph."""


class OrientationFailure(BozonError):
    """No admissible (odd-face) orientation could be constructed."""


class SingularMatrix(BozonError):
    """A determinant used as a denominator is zero."""


class InconsistentPair(BozonError):
    """A polygon pair admits no consistent leg configuration."""


# --- identity checks -------------------------------------------------------

class IdentityViolation(BozonError):
    """A value a check reads breaks an invariant it must hold (the
    correlator's imaginary residue)."""


class NonFiniteValue(BozonError):
    """A side of a checked identity is inf or NaN, typically a float
    overflow at extreme couplings; no tolerance can judge it."""


# --- boundary reductions ---------------------------------------------------

class DefectOnBoundary(BozonError):
    """A defect path touches edges removed by a boundary reduction."""


class NonContiguousArc(BozonError):
    """Fixed boundary edges do not form one contiguous arc of the face."""


class BadArcSplit(BozonError):
    """The two-arc split of a face boundary is invalid."""


# --- front end -------------------------------------------------------------

class UnknownGraph(BozonError):
    """Unrecognised builtin graph name."""
