"""Finite posets as finite topological spaces, with exact 2-dimension.

The central objects are the immutable Poset, certified Boolean-lattice
embeddings (CubeEmbedding, DimCertificate), and the homotopy toolkit of
beat points and cores that powers the constructive embedding routes.
"""

from .census import (
    CensusReport,
    CheckResult,
    census_check,
    random_poset,
)
from .constructions import (
    antichain,
    chain,
    cone,
    hypercube,
    join,
    suspension,
)
from .core import (
    Poset,
    StructureStats,
    build_poset,
    covers,
    is_isomorphic,
    structure_stats,
    topology_census,
)
from .dimension import (
    CubeEmbedding,
    DimCertificate,
    canonical_embedding,
    contractible_embedding,
    exists_embedding,
    lower_bound,
    two_dimension,
    upper_bound,
    verify_embedding,
)
from .errors import (
    CycleError,
    EmptyPoset,
    FormatError,
    InvalidEmbedding,
    InvalidWitness,
    OutOfRange,
    PosetError,
    TooLarge,
    TooWide,
    UnknownCheck,
    UnknownElement,
)
from .family import construction_sequence, realize
# This binds the package attribute ``core`` to the function homotopy.core,
# which shadows the submodule finposet.core: ``import finposet.core as c``
# gives the function.  ``from finposet.core import Poset`` still reaches the
# module through sys.modules (see the README).
from .homotopy import (
    BeatPointWitness,
    CoreTrace,
    beat_points,
    core,
    is_contractible,
)
from .io import (
    format_certificate,
    format_core_trace,
    format_embedding,
    format_poset,
    parse_embedding,
    parse_poset,
    to_dot,
)

__version__ = "0.1.0"

# The names the demos, the CLI and the README use, plus the exceptions and
# the result types; every other public name is imported from its module.
__all__ = [
    "BeatPointWitness",
    "CensusReport",
    "CheckResult",
    "CoreTrace",
    "CubeEmbedding",
    "CycleError",
    "DimCertificate",
    "EmptyPoset",
    "FormatError",
    "InvalidEmbedding",
    "InvalidWitness",
    "OutOfRange",
    "Poset",
    "PosetError",
    "StructureStats",
    "TooLarge",
    "TooWide",
    "UnknownCheck",
    "UnknownElement",
    "antichain",
    "beat_points",
    "build_poset",
    "canonical_embedding",
    "census_check",
    "chain",
    "cone",
    "construction_sequence",
    "contractible_embedding",
    "core",
    "covers",
    "exists_embedding",
    "format_certificate",
    "format_core_trace",
    "format_embedding",
    "format_poset",
    "hypercube",
    "is_contractible",
    "is_isomorphic",
    "join",
    "lower_bound",
    "parse_embedding",
    "parse_poset",
    "random_poset",
    "realize",
    "structure_stats",
    "suspension",
    "to_dot",
    "topology_census",
    "two_dimension",
    "upper_bound",
    "verify_embedding",
]
