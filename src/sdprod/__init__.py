"""Classify, build and cross-verify exact products of two semidihedral 2-groups."""

from .arith import SdPair, additive_order, admissible_s_values, derive_pair, sqrt1_units
from .congruence import (
    CoreSpec,
    TupleA,
    TupleB,
    Verdict,
    check_a,
    check_b,
    check_b_congruences,
)
from .errors import CapacityError, DomainError
from .fpcoset import (
    CosetTable,
    FpPres,
    StructureReport,
    coset_enumerate,
    fp_from_extended,
    parse_relator_file,
    parse_relator_lines,
    structure_report,
)
from .pcgroup import (
    ConsistencyReport,
    GroupTable,
    PcData,
    build_table,
    check_consistency,
    pc_from_tuple_a,
    pc_from_tuple_b,
    verify_associativity_extension,
)

__version__ = "0.1.0"
