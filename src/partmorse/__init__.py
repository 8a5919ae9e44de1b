"""Equivariant discrete Morse theory on the nerve of the partition lattice."""

from .setpart import (
    Partition,
    PartitionParseError,
    enumerate_proper,
    format_partition,
    parse_partition,
)
from .ordercomplex import (
    ExplicitComplex,
    InvalidPosetError,
    OrderComplex,
    Simplex,
    parse_simplex,
    proper_part_complex,
)
from .perm import (
    ComplexAction,
    Orbit,
    Perm,
    PermGroup,
    QuotientComplex,
    act,
    orbits,
)
from .morse import (
    DanglingCellError,
    InvalidMatchingError,
    Matching,
    MatchingCertificate,
    MorseData,
    check_equivariance,
    closure_matching,
    cohomology_pairing,
    cone_matching,
    equivariance_witness,
    equivariant_patchwork_matching,
    gradient_chain,
    matching_from_dump,
    morse_data,
    patchwork_matching,
    quotient_matching,
    validate_matching,
)
from .construction import (
    anchored_flags,
    build_main_matching,
    fiber_zero_matching,
    get_action,
    get_complex,
    matching_report,
    quotient_critical_cells,
)
from .trees import TreeQuotient
from .homology import (
    DimHomology,
    HomologyResult,
    InvalidComplexError,
    homology_of,
    smith_normal_form,
    verify_wedge,
)

__version__ = "0.1.0"
