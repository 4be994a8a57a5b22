"""Exception hierarchy shared by all modules."""


class UniformizerError(Exception):
    """Base class for all errors raised by this package."""


# --- combinatorics ---------------------------------------------------------

class UnmatchedSide(UniformizerError):
    """A triangle side is missing from the gluing list or listed twice."""


class NonOrientable(UniformizerError):
    """A side is glued to itself, which would reverse orientation."""


class EulerMismatch(UniformizerError):
    """The gluing is not one closed oriented surface, or its genus
    disagrees with the caller's genus hint."""


class PinchedVertex(UniformizerError):
    """One label of a face list lands on two surface vertices."""


class DegenerateFlip(UniformizerError):
    """Both sides of the edge lie in the same triangle; no quadrilateral."""


class UnknownVertex(UniformizerError):
    """Vertex id out of range or not kept in the given subcomplex."""


class UnknownTriangle(UniformizerError, IndexError):
    """Triangle id out of range."""


class UnknownEdge(UniformizerError, IndexError):
    """Edge id out of range or not an integer."""


# --- Penner algebra --------------------------------------------------------

class OutOfDomain(UniformizerError, ValueError):
    """An input value is NaN or outside its range: lambdas are finite, u
    is finite or +inf (and not +inf everywhere), cone angles are finite
    and >= 0, solver tolerances and iteration limits are > 0."""


# --- Delaunay --------------------------------------------------------------

class DegenerateQuad(UniformizerError):
    """Local Delaunay condition undefined: both sides of the edge in one triangle."""


class ArcOverflow(UniformizerError, OverflowError):
    """A horocyclic arc exceeds the float range: lambdas too far apart."""


class FlipLimitExceeded(UniformizerError):
    """Flip count exceeded the safety cap; input is likely pathological."""


class SameVertex(UniformizerError):
    """Horocycle distance requested between a vertex and itself."""


class FanInconsistent(UniformizerError):
    """The adjusted run did not fan every vertex from the one decorated
    vertex: a vertex's edges to it disagree, or it has none."""


# --- energies --------------------------------------------------------------

class TriangleInequalityViolated(UniformizerError):
    """Side lengths do not satisfy the strict triangle inequalities."""


class WrongLength(UniformizerError, ValueError):
    """A per-vertex or per-edge array holds the wrong number of values."""


class NotNeutral(UniformizerError):
    """Edge is not cocircular; both triangulations are not simultaneously Delaunay."""


# --- optimization ----------------------------------------------------------

class GaussBonnetViolated(UniformizerError):
    """Target cone angles do not satisfy the Gauss-Bonnet condition."""


class WrongGenus(UniformizerError):
    """Operation requires a surface of a different genus."""


class SolverFailure(UniformizerError):
    """Optimization did not converge. Carries the partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class IterLimit(SolverFailure):
    """Maximum iteration count reached before convergence."""


class LineSearchFailure(SolverFailure):
    """Backtracking line search failed to make progress."""


# --- realization -----------------------------------------------------------

class NotRealizable(UniformizerError):
    """Delaunay output fails the realizability conditions (optimizer failure upstream)."""


class LayoutInconsistent(UniformizerError):
    """Planar layout did not close up within tolerance."""


class ConvexityViolated(UniformizerError):
    """Reconstructed polyhedron is not convex within tolerance."""


class WrongKind(UniformizerError):
    """Realization routine called on the wrong realizability class."""


# --- input files -----------------------------------------------------------

class NonTriangleFace(UniformizerError):
    """Mesh file contains a non-triangular face."""


class OpenMesh(UniformizerError):
    """Mesh file is not a closed surface."""


class ZeroLengthEdge(UniformizerError):
    """Mesh file contains an edge of zero length."""


class FormatError(UniformizerError):
    """Malformed surface or report file."""
