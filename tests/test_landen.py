from fractions import Fraction

import pytest

from chebdisk import cli, landen
from chebdisk.errors import DomainError
from chebdisk.jsonio import render_json
from chebdisk.theta import UpperHalfPoint

# Orderings of sub-eps noise are not algorithm properties: at y >= 10 the
# analytic residuals (~ e^{-2 pi y}) sit far below double resolution, so the
# convergence comparison is made against max(residual, floor).
MEASUREMENT_FLOOR = 1e-12


def uhp(y):
    return UpperHalfPoint(1j * y)


def test_general_identity_examples():
    assert landen.verify_identity("n2_prod", uhp(1.0)).residual <= 1e-12
    assert landen.verify_identity("n3_prod", uhp(0.5)).passed
    assert landen.verify_identity("n6_prod", uhp(1.0)).passed


def test_general_identity_rejects_degree_one():
    with pytest.raises(DomainError):
        landen.verify_identity("n1_prod", uhp(1.0))


@pytest.mark.parametrize("identity_id", ["n4_sum", "n5_sum", "n6_e1", "n6_e2"])
def test_catalog_examples(identity_id):
    for y in (0.5, 1.0):
        report = landen.verify_identity(identity_id, uhp(y))
        assert report.passed, report


def test_verify_identity_rejects_unknown_ids():
    for identity_id in ("n7_prod", "n5_e2", "n4_prod "):
        with pytest.raises(DomainError):
            landen.verify_identity(identity_id, uhp(1.0))


def test_full_catalog_over_grid():
    reports = landen.run_catalog()
    assert len(reports) == len(landen.CATALOG) * len(landen.DEFAULT_TAU_GRID)
    for report in reports:
        assert report.passed, report
        assert report.residual <= 1e-10
    # ordering is (identity_id, tau) regardless of scheduling
    keys = [(r.identity_id, r.tau.value.imag) for r in reports]
    assert keys == sorted(keys)


def test_trig_targets_are_the_nine_constants():
    expected = {
        "n2_prod": Fraction(1, 2),
        "n3_prod": Fraction(3, 4),
        "n4_sum": Fraction(1),
        "n4_prod": Fraction(1, 8),
        "n5_sum": Fraction(5, 4),
        "n5_prod": Fraction(5, 16),
        "n6_e1": Fraction(3, 2),
        "n6_e2": Fraction(9, 16),
        "n6_prod": Fraction(1, 32),
    }
    for identity_id, target in expected.items():
        assert landen.trig_limit(identity_id).rhs == float(target), identity_id


@pytest.mark.parametrize("identity_id", sorted(landen.CATALOG))
def test_trig_limits_converge(identity_id):
    at_30 = landen.trig_limit(identity_id, 30.0)
    at_10 = landen.trig_limit(identity_id, 10.0)
    assert at_30.residual <= 1e-6
    assert at_30.residual <= max(at_10.residual, MEASUREMENT_FLOOR)


def test_report_invariant_pass_iff_within_tolerance():
    report = landen.trig_limit("n2_prod", 0.4)  # far from the limit
    assert report.residual > report.tolerance
    assert not report.passed
    good = landen.trig_limit("n2_prod", 30.0)
    assert good.residual <= good.tolerance and good.passed


def test_report_serialization_is_deterministic():
    a = render_json(cli._report_payload(landen.verify_identity("n4_sum", uhp(1.0))))
    b = render_json(cli._report_payload(landen.verify_identity("n4_sum", uhp(1.0))))
    assert a == b
    assert '"identity_id": "n4_sum"' in a
    assert '"pass": true' in a
