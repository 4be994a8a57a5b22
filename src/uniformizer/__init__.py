"""Discrete conformal uniformization of triangulated surfaces.

Subpackages:

    mesh_core   combinatorics: gluings, flips, subcomplexes
    penner      decorated metrics, fiber shift, Ptolemy relation
    delaunay    weighted Delaunay flip algorithm and distances
    energy      triangle potential and the two convex energies
    optimize    Newton solvers and KKT verification
    realize     polyhedra, flat tori, and cone metrics
    surfaces    ready-made example surfaces
    io_cli      file formats and the command line tool
"""

from .errors import (
    UniformizerError,
    UnmatchedSide,
    NonOrientable,
    EulerMismatch,
    DegenerateQuad,
    FlipLimitExceeded,
    SameVertex,
    TriangleInequalityViolated,
    NotNeutral,
    GaussBonnetViolated,
    WrongGenus,
    SolverFailure,
    IterLimit,
    LineSearchFailure,
    NotRealizable,
    LayoutInconsistent,
    ConvexityViolated,
    FormatError,
)
from .mesh_core import (
    Triangulation,
    build_from_gluings,
    build_from_faces,
    flip_edge,
    subcomplex_avoiding,
    classify_subcomplex,
)
from .penner import (
    DecoratedMetric,
    PartialDecoration,
    ConeAngleTarget,
    fiber_shift,
    ptolemy_update,
)
from .delaunay import (
    make_delaunay,
    check_delaunay,
    delaunay_margin,
    horocycle_distance,
    horocycle_distances_to,
    PLAIN,
    ADJUSTED,
)
from .energy import (
    lobachevsky,
    triangle_potential,
    fixed_triangulation_energy,
    conformal_energy,
    punctured_energy,
    crossflip_c2_check,
)
from .optimize import (
    SolveOptions,
    SolveReport,
    minimize_conformal_energy,
    minimize_punctured_energy,
    kkt_check,
)
from .realize import (
    Realization,
    uniformize_sphere,
    uniformize_torus,
    prescribe_cone_angles,
)

__version__ = "0.1.0"
