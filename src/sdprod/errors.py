"""Exception types shared across the package."""


class DomainError(ValueError):
    """Mathematically invalid input: bad rank, malformed modulus, invalid
    core specification, or a tuple that violates a required precondition."""


class CapacityError(RuntimeError):
    """A configured resource cap was exceeded.  The package raises it for
    eight caps:

    - derive_pair's rank cap (arith.MAX_RANK);
    - crosscheck's rank cap (cli.CROSSCHECK_MAX_RANK);
    - the listing gate of enumerate-a and enumerate-b (cli.LARGE_SCAN_GATE);
    - the table-file cap of build --output (cli.TABLE_FILE_CAP);
    - the associativity cap of build --verify-associativity and
      verify_associativity_exhaustive (pcgroup.DEFAULT_ASSOC_CAP);
    - build_table's order cap (pcgroup.DEFAULT_MAX_ORDER);
    - coset_enumerate's coset cap (max_cosets);
    - the relator-letter cap of parse_relator_lines
      (fpcoset.MAX_RELATOR_LETTERS).
    """
