"""Exception types shared across the package."""


class HypDelError(Exception):
    """Base class for all package errors."""


class DomainError(HypDelError):
    """Argument outside the mathematical domain of a formula."""


class DegenerateTriangle(HypDelError):
    """Three points on a common geodesic have no circumcircle."""


class NoCompactCircumdisk(HypDelError):
    """The circumscribing circle is not contained in the unit disk."""


class InvalidGraph(HypDelError):
    """Pants graph violates the 3-regular / connectivity invariants."""


class InvalidLength(HypDelError):
    """Length parameter outside (0, surface.MAX_LENGTH]."""


class MalformedInput(HypDelError):
    """An unreadable input file, or one with a missing key, a value of the
    wrong type, an index out of range or a number that is not finite."""


class InvalidGenus(HypDelError):
    """Genus below 2."""


class RadiusCap(HypDelError):
    """An enumeration exceeded its configured radius or word-length cap."""


class WrongClassification(HypDelError):
    """Cylinder passed to the wrong construction (thin vs thick)."""


class MeshError(HypDelError):
    """Candidate mesh generation failed."""


class ConstructionFailure(HypDelError):
    """A construction-time assertion failed; the message names what."""


class InvalidInterval(HypDelError):
    """Bad cuff-length interval [a, b]."""


class DecompositionFailure(HypDelError):
    """Cluster decomposition violated one of its three properties."""


class EmbeddingError(HypDelError):
    """Face tracing produced an inconsistent rotation-system walk."""


class InvalidRotation(HypDelError):
    """Malformed rotation system."""


class NotHyperbolizable(HypDelError):
    """Rotation system is not a hyperbolizable triangular embedding."""
