"""Every verify check runs in tier-1: each one that test_acceptance.py does not
already run is run here through the report's runner and must pass."""

import types

import pytest
import test_acceptance

from tracepair import verify


def _global_names(code):
    """The global names that compiled code reads, its nested lambdas' included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


# the checks that test_acceptance.py runs, read from its test functions
IN_ACCEPTANCE = {
    getattr(verify, name)
    for test_name, test in vars(test_acceptance).items() if test_name.startswith("test_")
    for name in _global_names(test.__code__) if name.startswith("check_")
}
ENTRIES = [entry for entries in verify.SUITES.values() for entry in entries
           if entry[1] not in IN_ACCEPTANCE]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry[0] for entry in ENTRIES])
def test_check_passes(entry):
    check = verify._run(*entry)
    assert check.status == "pass", (check.lhs, check.rhs, check.detail)
