"""Committed mutants: each is a one-line edit of the package or of a
reference formula of the tests, with the one check that must kill it.

A mutant is made from the source of the function it edits: the line is
replaced, the function is compiled again over its module's own globals,
so that it sees what a check patches in that module, and monkeypatch
puts it in place of the original for one test.  A cached function's
mutant is the bare function, and the package's caches are emptied
before and after the mutant runs, so that no result cached by the code
as it is hides the mutant, and none cached under it outlives it.  A
function the check's test module imports by name is patched there, in
the test module: patched in the package, the check would never see it.
The test runs the named check on its listed cases, first on the code as
it is, where every case must pass, then on the mutant, where every case
must fail, with an AssertionError or with pytest's Failed (a
pytest.raises that saw no exception).  A check may take the capsys and
monkeypatch fixtures.  Only the named check runs, so the file takes
seconds.  An edit whose line is no longer in the source fails here too:
the mutant must then be rewritten for the new code, not dropped.
"""

import inspect
import textwrap
import types
from typing import Callable, NamedTuple

import pytest

import test_arith
import test_cli
import test_congruence
import test_fpcoset
import test_pcgroup
import test_properties
from sdprod import cli, congruence, fpcoset, pcgroup


class Mutant(NamedTuple):
    owner: object  # the module or class that holds the edited function
    name: str  # the function, or property, edited
    line: str  # the source text replaced, which must occur once
    mutated: str
    check: Callable  # the killing check
    cases: tuple  # its arguments, one tuple per case


FIXTURES = ("capsys", "monkeypatch")  # the pytest fixtures a check may take


def parametrized_case(test, case_id):
    """The arguments of the case case_id of a test with one parametrize mark."""
    (mark,) = test.pytestmark
    return mark.args[1][mark.kwargs["ids"].index(case_id)]


MUTANTS = {
    # the modular group's relation x^y = x^(N/2+1) accepted beside the
    # semidihedral x^(N/2-1)
    "semidihedral-accepts-modular": Mutant(
        fpcoset,
        "_is_semidihedral",
        "return table.walk((-y, x, y)) == powers[x][twist % n_half]",
        "return table.walk((-y, x, y)) in (powers[x][twist % n_half], powers[x][twist + 2])",
        test_fpcoset.test_structure_report_cores_off_a_chain,
        (
            (test_fpcoset.M16_LINES, test_fpcoset.M16_REPORT),
            (test_fpcoset.M16_ZW_LINES, test_fpcoset.M16_ZW_REPORT),
        ),
    ),
    # t' of the new generators with + r v' in place of - r v'
    "r-v2-sign-flipped": Mutant(
        test_properties,
        "tuple_in_new_generators",
        "(t + s * v - r * v2) * u_inv % N",
        "(t + s * v + r * v2) * u_inv % N",
        test_properties.test_new_generators_read_off_the_table_give_the_mapped_tuple.hypothesis.inner_test,
        ((test_properties.SIGN_OF_R_V2,),),
    ),
    # every overlap identity reported as holding, whatever its residual
    "consistency-entry-always-passed": Mutant(
        pcgroup.ConsistencyEntry,
        "passed",
        "return self.residual == (0, 0)",
        "return True",
        test_pcgroup.test_consistency_report_pinned_entry_by_entry,
        tuple(test_pcgroup.PINNED_REPORTS),
    ),
    # every report consistent: build_table no longer refuses a failed identity
    "consistency-report-overall-always-true": Mutant(
        pcgroup.ConsistencyReport,
        "overall",
        "return all(residual == (0, 0) for _, _, residual in self.entries)",
        "return True",
        test_pcgroup.test_build_table_rejects_inconsistent,
        ((),),
    ),
    # P(1, 2)'s z part left unreduced modulo M
    "consistency-p12-unreduced": Mutant(
        test_pcgroup,
        "check_consistency",
        'E("P", (1, 2), ((c + c * wzz + t * wxz) % M, (t + c * wzx + t * wxx) % N)),',
        'E("P", (1, 2), (c + c * wzz + t * wxz, (t + c * wzx + t * wxx) % N)),',
        test_pcgroup.test_consistency_report_pinned_entry_by_entry,
        tuple(test_pcgroup.PINNED_REPORTS),
    ),
    # C(1, 2, 4)'s x part with its two sides swapped, Y W x - W Y x.  That
    # part is -b r, odd in every pinned report, so the swap shows in each
    "consistency-c124-sides-swapped": Mutant(
        test_pcgroup,
        "check_consistency",
        "(yxz * wzx + yxx * wxx - wxz * yzx - wxx * yxx) % N,",
        "(wxz * yzx + wxx * yxx - yxz * wzx - yxx * wxx) % N,",
        test_pcgroup.test_consistency_report_pinned_entry_by_entry,
        tuple(test_pcgroup.PINNED_REPORTS),
    ),
    # D5 with 1 + s in place of -1 - s
    "d5-sign-of-s": Mutant(
        congruence,
        "_residuals",
        "r * (beta - 1 - s) % N,",
        "r * (beta + 1 - s) % N,",
        test_congruence.test_enumerate_b_matches_brute_force_all_cores,
        ((4, 4),),
    ),
    # D10 without its t*b term
    "d10-drops-t-b": Mutant(
        congruence,
        "_residuals",
        "(c * (1 + beta) + t * b) % M,",
        "c * (1 + beta) % M,",
        test_congruence.test_enumerate_b_matches_brute_force_all_cores,
        ((4, 4),),
    ),
    # c_step blind to D11's step N/gcd(r, N)
    "c-step-drops-r": Mutant(
        congruence,
        "_steps",
        "c_step = max(2, N // math.gcd(r, N), M // math.gcd(2 + a, M))",
        "c_step = max(2, M // math.gcd(2 + a, M))",
        test_congruence.test_enumerate_b_matches_brute_force_all_cores,
        ((4, 4),),
    ),
    # the normality test of a cyclic core skips the last generator
    "core-order-skips-last-generator": Mutant(
        fpcoset,
        "_core_order",
        "for s in range(1, ngens + 1))",
        "for s in range(1, ngens))",
        test_fpcoset.test_structure_report_twisted_cores,
        tuple(test_fpcoset.TWISTED_CORES),
    ),
    # y acting on x by the modular unit alpha + 2 = N/2 + 1
    "y-on-x-modular": Mutant(
        test_pcgroup,
        "pc_from_tuple_b",
        "Y=(((1 + a) % pair.M, r), (0, pair.alpha)),",
        "Y=(((1 + a) % pair.M, r), (0, pair.alpha + 2)),",
        test_pcgroup.test_consistency_report_pinned_entry_by_entry,
        tuple(test_pcgroup.PINNED_REPORTS),
    ),
    # the fourth square root of 1 as half + 1, a repeat of 1 + half
    "sqrt1-half-plus-one": Mutant(
        test_arith,
        "sqrt1_units",
        "return {1, 1 + half, modulus - 1, half - 1}",
        "return {1, 1 + half, modulus - 1, half + 1}",
        test_arith.test_sqrt1_units_examples,
        ((),),
    ),
    # the certificate without "one linear part for both w maps"
    "certificate-drops-shared-linear-part": Mutant(
        test_pcgroup,
        "verify_associativity_extension",
        "if None in parts or parts[1][1:] != parts[2][1:]:",
        "if None in parts:",
        test_pcgroup.test_extension_certificate_rejects_each_failed_condition,
        tuple(c for c in test_pcgroup.tables_failing_one_condition() if c[0] == "a"),
    ),
    # the audit checks no subgroup word at coset 0
    "audit-skips-subgroup-words": Mutant(
        test_fpcoset,
        "_audit",
        "for word in subgroup:",
        "for word in ():",
        test_fpcoset.test_audit_catches_a_subgroup_word_that_moves_coset_0,
        ((),),
    ),
    # the core of <z> blind to x exponents that are multiples of N/2
    "core-orders-blind-to-half-n": Mutant(
        pcgroup.PcData,
        "core_orders",
        "e = min(pair.M, pair.N // gcd(pair.N, W[0][1], Y[0][1]))",
        "e = min(pair.M, pair.N // 2 // gcd(pair.N // 2, W[0][1], Y[0][1]))",
        test_properties.test_core_orders_are_the_cores_solve_b_was_asked_for.hypothesis.inner_test,
        ((test_properties.X_EXPONENT_HALF_N,),),
    ),
    # the rewrite's runs reduced without n mod k: a run of 2k or more
    # letters is not reduced below k, so x^32 beside x^16 stays x^16
    "spell-skips-run-modulo-period": Mutant(
        fpcoset,
        "_spell",
        "n %= k",
        "pass",
        test_fpcoset.test_compile_relators,
        (parametrized_case(test_fpcoset.test_compile_relators, "x^32-beside-x^16"),),
    ),
    # the audit's spelling calls every relator a pure power: x y is then
    # checked as the cycles of x alone
    "public-words-all-pure-powers": Mutant(
        fpcoset,
        "_public_words",
        "rel.count(rel[0]) == len(rel)",
        "True",
        test_fpcoset.test_audit_walks_a_relator_to_the_last_coset,
        ((),),
    ),
    # crosscheck without its centre test: |G:H| = 2M alone decides.  Only
    # the (4,4) case reaches the test; at (4,5) |G:H| is not 2M
    "crosscheck-drops-centre-test": Mutant(
        cli,
        "crosscheck_order",
        "if over_k.walk((x,) * (pair.N // 2)) != 0:",
        "if True:",
        test_cli.test_crosscheck_falls_back_to_the_elements_of_a_collapsed_group,
        tuple(c for c in test_cli.COLLAPSED_GROUPS if c[:2] == (4, 4)),
    ),
}


def mutate(mutant: Mutant):
    """The edited function (or property) of mutant, compiled from its source
    over its module's own globals."""
    original = vars(mutant.owner)[mutant.name]
    fn = inspect.unwrap(original.fget if isinstance(original, property) else original)
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(mutant.line) == 1, f"{mutant.name} no longer holds {mutant.line!r}"
    module = compile(source.replace(mutant.line, mutant.mutated), inspect.getsourcefile(fn), "exec")
    (code,) = (c for c in module.co_consts if getattr(c, "co_name", None) == fn.__name__)
    edited = types.FunctionType(code, fn.__globals__, fn.__name__, fn.__defaults__)
    return property(edited) if isinstance(original, property) else edited


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS.keys())
def test_mutant_is_killed_by_its_check(request, monkeypatch, mutant):
    # a check may take the capsys and monkeypatch fixtures, by name; its
    # cases give its other parameters, in order
    params = list(inspect.signature(mutant.check).parameters)
    fixtures = {name: request.getfixturevalue(name) for name in params if name in FIXTURES}
    rest = [name for name in params if name not in FIXTURES]

    def check(case):
        mutant.check(**fixtures, **dict(zip(rest, case, strict=True)))

    for case in mutant.cases:
        check(case)
    monkeypatch.setattr(mutant.owner, mutant.name, mutate(mutant))
    clear_caches()
    try:
        for case in mutant.cases:
            # a check that expects an exception fails with pytest's Failed
            with pytest.raises((AssertionError, pytest.fail.Exception)):
                check(case)
    finally:
        clear_caches()


def clear_caches():
    """Empty the package's cached functions: a result cached by the code as
    it is could hide the mutant, and one cached under the mutant (as
    _compile_relators under a mutant _spell) could outlive it."""
    for module in (cli, congruence, fpcoset, pcgroup):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
