"""Acceptance gate: every criterion at its stated tolerance and runtime budget."""

import pytest

from zefc import acceptance
from zefc.acceptance import CRITERIA, run_all
from zefc.bitspace import sumset
from zefc.coloring import verify_aitch_superadditivity

NAMES = [
    "capacity_closed_forms",
    "split_sandwich",
    "coloring_converse",
    "aitch_superadditivity",
    "sumset_lower_bound",
    "cutset_nontightness",
    "mixed_pair_minimum",
    "property_suite",
]


@pytest.fixture(scope="module")
def results():
    return {result.name: result for result in run_all()}


@pytest.mark.parametrize("name", NAMES)
def test_criterion(results, name):
    # A criterion that reaches its runtime budget fails, so passing covers the budget.
    result = results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} ({result.elapsed_s:.2f}s)")
    assert result.passed, f"{result.name}: {result.failures}"


def test_criterion_reaching_its_budget_fails():
    result = acceptance._criterion("probe", 0.0)(lambda: ([], {"checked": 1}))()
    assert not result.passed
    assert result.details == {"checked": 1}
    assert len(result.failures) == 1 and result.failures[0].startswith("runtime ")
    assert result.failures[0].endswith("exceeded budget 0.0s")


def test_suite_is_complete(results):
    assert len(CRITERIA) == 8
    assert sorted(results) == sorted(NAMES)


def test_criterion_8_fails_on_a_wrong_chromatic_count(monkeypatch):
    monkeypatch.setattr(acceptance, "chi", lambda k, m, l: len(sumset(k, m, l)) + 1)
    result = acceptance.run_criterion_8()
    assert not result.passed
    assert "k=1 M=(0,) L=(0,): 2 != 1" in result.failures


def test_criterion_8_fails_on_a_short_packing_budget(monkeypatch):
    # Images of two labels each carry 4 sums, short of 3^k from k = 2 on.
    monkeypatch.setattr(acceptance, "packing_sizes", lambda k, caps: (2, 2))
    result = acceptance.run_criterion_8()
    assert not result.passed
    assert "packing budget fails at caps (1,1) k=2" in result.failures
    assert "packing budget fails at caps (1,1) k=1" not in result.failures


def test_criterion_4_fails_when_tau_leaves_the_unit_interval(monkeypatch):
    monkeypatch.setattr(acceptance, "log2_3_sign", lambda p, q: 1)
    result = acceptance.run_criterion_4()
    assert result.failures == ("tau = log2(3)-1 is not in (0, 1)",)


def test_criterion_4_fails_on_a_counterexample_that_holds(monkeypatch):
    def holding(l_max):
        report = verify_aitch_superadditivity(l_max)
        counterexample = report.tau_maximality | {"rhs": report.tau_maximality["lhs"]}
        return report._replace(tau_maximality=counterexample)

    monkeypatch.setattr(acceptance, "verify_aitch_superadditivity", holding)
    result = acceptance.run_criterion_4()
    assert result.failures == ("counterexample [1, 1] does not fail",)
