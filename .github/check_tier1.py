"""Pass only if the tier-1 failures are exactly the three acceptance
criteria that assert false statements (03, 12 and 13), each failing on its
own assertion.

Usage: python .github/check_tier1.py tier1.xml

Reads the JUnit XML that pytest writes with ``--junitxml``.  Each of the
three must fail with a ``<failure>`` whose message is ``AssertionError: ``
followed by the opening of the analysis it asserts; an ``<error>``, another
exception or another message means it failed for a different reason.  A new
failure or error, one of the three starting to pass or failing differently,
or a report with no tests exits 1.  Standard library only.
"""

import sys
import xml.etree.ElementTree as ET

# each expected failure and the opening of its assertion message
EXPECTED = {
    "tests.test_acceptance::test_criterion_03_differential_squares_and_bialgebroid_compatibility":
        "the derivation identity cannot fail on this witness",
    "tests.test_acceptance::test_criterion_12_anticommutator_tracks_the_modular_field":
        "for the linear bivector the anticommutator",
    "tests.test_acceptance::test_criterion_13_capped_tables_agree_below_the_cap_window":
        "the capped tables cannot agree inside the window",
}


def failed_tests(path):
    """The number of test cases, and each failed one as ``classname::name``
    mapped to its ``<failure>`` message, or to None when it has an
    ``<error>``."""
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {}
    for case in cases:
        name = "%s::%s" % (case.get("classname"), case.get("name"))
        failure = case.find("failure")
        if case.find("error") is not None:
            failed[name] = None
        elif failure is not None:
            failed[name] = failure.get("message", "")
    return len(cases), failed


def main(argv):
    total, failed = failed_tests(argv[1])
    print("%d tests, %d failed" % (total, len(failed)))
    problems = []
    for name in sorted(failed.keys() - EXPECTED.keys()):
        problems.append("unexpected failure: %s" % name)
    for name, opening in sorted(EXPECTED.items()):
        if name not in failed:
            problems.append("expected to fail but passed or did not run: %s" % name)
        elif not (failed[name] or "").startswith("AssertionError: " + opening):
            problems.append("failed for another reason: %s" % name)
    for line in problems:
        print(line)
    return 0 if total and not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
