"""Acceptance criteria, one test per criterion, each printing its verdict line.

Criteria 1..11 run through chebdisk.acceptance (the same code behind
`chebdisk verify-all`); criterion 12 exercises the installed CLI from the
outside: exit codes, byte-identical output, parse diagnostics.
"""

import json
from itertools import permutations

import pytest

from chebdisk import acceptance, monodromy

from helpers import run_python


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_theta_identity_suite():
    _check(acceptance.criterion_1_theta_transforms())


def test_criterion_2_cd_degeneration():
    _check(acceptance.criterion_2_cd_degeneration())


def test_criterion_3_blaschke_geometry():
    _check(acceptance.criterion_3_blaschke_geometry())


def test_criterion_4_functional_definition():
    _check(acceptance.criterion_4_functional_definition())


def test_criterion_5_composition_law():
    _check(acceptance.criterion_5_composition())


def test_criterion_6_coefficient_triple_oracle():
    _check(acceptance.criterion_6_coefficient_oracles())


def test_criterion_7_critical_values():
    _check(acceptance.criterion_7_critical_values())


def test_criterion_8_chebyshev_degeneration():
    _check(acceptance.criterion_8_chebyshev_degeneration())


def test_criterion_9_monodromy_suite():
    _check(acceptance.criterion_9_monodromy())


def _transitive_pair_count(n):
    """Pairs in S_n x S_n whose generated group moves 0 to every point."""
    perms = list(permutations(range(n)))
    count = 0
    for a in perms:
        for b in perms:
            orbit = {0}
            while True:
                grown = orbit | {a[p] for p in orbit} | {b[p] for p in orbit}
                if grown == orbit:
                    break
                orbit = grown
            count += len(orbit) == n
    return count


def test_criterion_9_sweeps_every_transitive_pair(monkeypatch):
    counts = [_transitive_pair_count(n) for n in range(1, 6)]
    assert counts == [1, 3, 26, 426, 11064]
    calls = []
    is_tree = monodromy.is_tree

    def counting_is_tree(rep):
        calls.append(rep.n)
        return is_tree(rep)

    monkeypatch.setattr(monodromy, "is_tree", counting_is_tree)
    transitive_calls = []
    is_transitive = monodromy.is_transitive

    def counting_is_transitive(rep):
        transitive_calls.append(rep.n)
        return is_transitive(rep)

    monkeypatch.setattr(monodromy, "is_transitive", counting_is_transitive)
    equivalent_calls = []
    are_equivalent = monodromy.are_equivalent

    def counting_are_equivalent(rep1, rep2):
        equivalent_calls.append(rep1.n)
        return are_equivalent(rep1, rep2)

    monkeypatch.setattr(monodromy, "are_equivalent", counting_are_equivalent)
    _check(acceptance.criterion_9_monodromy())
    # the sweep once per transitive pair, then is_tree and dessin_stats
    # on each chain representation n = 1..10
    assert len(calls) == sum(counts) + 20
    # every pair in S_n x S_n, n = 1..5, is tested for transitivity
    assert len(transitive_calls) == 1 + 4 + 36 + 576 + 14400
    # all rep pairs at n = 2 and n = 3, then the 60 seeded conjugations
    assert len(equivalent_calls) == 4**2 + 36**2 + 60


@pytest.mark.parametrize("verdict", [False, True])
def test_criterion_9_catches_a_constant_equivalence_oracle(monkeypatch, verdict):
    monkeypatch.setattr(monodromy, "are_equivalent", lambda rep1, rep2: verdict)
    result = acceptance.criterion_9_monodromy()
    assert not result.passed
    assert "equivalence decision wrong" in result.detail


def test_run_all_times_each_criterion():
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.seconds > 0.0 for r in results)
    # the timing is not part of a result's value
    assert results[7] == acceptance.criterion_8_chebyshev_degeneration()


def test_criterion_10_modulus_keystone():
    _check(acceptance.criterion_10_modulus_keystone())


def test_criterion_11_landen_catalog():
    _check(acceptance.criterion_11_landen_catalog())


def test_criterion_12_cli_contract():
    code1, out1, _ = run_python("-m", "chebdisk.cli", "verify-all")
    code2, out2, _ = run_python("-m", "chebdisk.cli", "verify-all")
    doc = json.loads(out1)
    deterministic = out1 == out2
    all_green = code1 == 0 and doc["all_passed" if "all_passed" in doc else "status"]
    payload_ok = doc["status"] == "ok" and doc["payload"]["all_passed"] is True
    bad_code, _, bad_err = run_python(
        "-m", "chebdisk.cli", "landen", "verify", "--id", "nope"
    )
    malformed_ok = bad_code == 2 and ("usage" in bad_err.lower() or "invalid" in bad_err.lower())
    passed = deterministic and code1 == 0 and payload_ok and malformed_ok
    print(
        f"{'PASS' if passed else 'FAIL'} criterion 12: CLI contract "
        f"(verify-all exit {code1}, deterministic {deterministic}, "
        f"malformed-input exit {bad_code})"
    )
    assert code1 == 0 and payload_ok
    assert deterministic
    assert malformed_ok
