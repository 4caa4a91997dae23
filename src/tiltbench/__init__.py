"""tiltbench: a workbench for finite-dimensional quiver algebras.

Exact rational arithmetic throughout; every verdict is backed by a
re-checkable witness.  The layers, bottom up:

  linalg        exact scalars (ints, Fractions where not integral, one
                division ``div``), dense matrices over them, and one sparse
                row reduction behind every rank, kernel, solve, row space
                and coordinate lookup
  quiver        quivers, paths, relations (left-to-right composition)
  algebra       one algebra type: finite-dimensional algebras by lazily
                tabulated structure constants, path algebras modulo
                admissible relations among them
  reps          modules as row-vector quiver representations
  decompose     splitting by primitive idempotents, one engine for modules
                (via End(M)) and abstract algebras; a decomposition is its
                list of summand copies, each with an inclusion and a
                projection; one isomorphism test for modules and complexes
                (match the summands, invert the assembled map once)
  approx        minimal right/left approximations by projectives, and their tower
  complexes     bounded complexes of projectives, homotopy homs, minimization
  complex_decomp  idempotent splitting and isomorphism of radical complexes
  presentation  quivers with relations recovered from abstract algebras
  tilting       stability of terms, tilting verification, the approximation
                construction, endomorphism algebras, stable images
  serialize     JSON formats; cli: the command-line surface
"""

from .algebra import BasicAlgebra, build_path_algebra
from .complex_decomp import complexes_isomorphic, decompose_complex, split_idempotent
from .complexes import (
    ChainMapC,
    ProjComplex,
    homology,
    homotopy_hom,
    minimize,
    regular_stalk,
    stalk_complex,
)
from .decompose import decompose, is_isomorphic
from .errors import TiltbenchError
from .linalg import Matrix
from .presentation import (
    algebra_from_structure_constants,
    presentations_match,
    quiver_presentation,
    relation_ideals_equal,
)
from .quiver import Path, Quiver, Relation, monomial_relation, relation_from_words
from .reps import (
    ModuleMap,
    Representation,
    hom_space,
    injective,
    projective,
    radical_layers,
    regular_module,
    simple,
    socle,
    top,
)
from .tilting import (
    TiltingContext,
    check_add_nu_equal,
    construct_tpq,
    end_algebra,
    maximal_nu_stable,
    nakayama_on_projectives,
    verify_tilting,
)

__version__ = "0.1.0"

__all__ = [
    "BasicAlgebra",
    "ChainMapC",
    "Matrix",
    "ModuleMap",
    "Path",
    "ProjComplex",
    "Quiver",
    "Relation",
    "Representation",
    "TiltbenchError",
    "TiltingContext",
    "algebra_from_structure_constants",
    "build_path_algebra",
    "check_add_nu_equal",
    "complexes_isomorphic",
    "construct_tpq",
    "decompose",
    "decompose_complex",
    "end_algebra",
    "hom_space",
    "homology",
    "homotopy_hom",
    "injective",
    "is_isomorphic",
    "maximal_nu_stable",
    "minimize",
    "monomial_relation",
    "nakayama_on_projectives",
    "presentations_match",
    "projective",
    "quiver_presentation",
    "radical_layers",
    "regular_module",
    "regular_stalk",
    "relation_from_words",
    "relation_ideals_equal",
    "simple",
    "socle",
    "split_idempotent",
    "stalk_complex",
    "top",
    "verify_tilting",
]
