from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spotbatch import costmodel as cm
from spotbatch.errors import ValidationError

RTX_NODE = cm.OnPremNodeSpec(
    hardware_cost=2000.0, lifetime_years=3.0, energy_cost_per_year=300.0, rack_u=1, ns_per_day=5.9
)
STANDARD_OVERHEADS = cm.OverheadSpec(100.0, 200.0, 60.0, 40.0)


def test_node_overhead_reference():
    assert cm.node_overhead_per_year(STANDARD_OVERHEADS, 1) == 400.0


def test_node_overhead_zero():
    assert cm.node_overhead_per_year(cm.OverheadSpec(0, 0, 0, 0), 1) == 0.0


def test_node_overhead_larger_chassis():
    assert cm.node_overhead_per_year(STANDARD_OVERHEADS, 4) == 700.0


def test_onprem_cost_reference():
    # 500 + (1000/5.9)/365 * 400 = 685.74...
    total = cm.onprem_cost_per_microsecond(RTX_NODE, STANDARD_OVERHEADS, 500.0, 1.0)
    expected = 500.0 + (1000.0 / 5.9) / 365.0 * 400.0
    assert total == pytest.approx(expected, rel=1e-12)
    assert total == pytest.approx(686.0, abs=1.0)


def test_onprem_overhead_share_reference():
    only_overhead = cm.onprem_cost_per_microsecond(RTX_NODE, STANDARD_OVERHEADS, 0.0, 1.0)
    assert only_overhead == pytest.approx(185.74, abs=0.01)


def test_onprem_utilization_reference():
    total = cm.onprem_cost_per_microsecond(RTX_NODE, STANDARD_OVERHEADS, 500.0, 0.75)
    assert total == pytest.approx(914.3, abs=0.1)


def test_onprem_zero_overheads_is_base():
    assert cm.onprem_cost_per_microsecond(RTX_NODE, cm.OverheadSpec(0, 0, 0, 0), 500.0, 1.0) == 500.0


@given(utilization=st.floats(0.05, 1.0))
def test_onprem_utilization_divides(utilization):
    full = cm.onprem_cost_per_microsecond(RTX_NODE, STANDARD_OVERHEADS, 500.0, 1.0)
    partial = cm.onprem_cost_per_microsecond(RTX_NODE, STANDARD_OVERHEADS, 500.0, utilization)
    assert partial == pytest.approx(full / utilization, rel=1e-12)


def test_cloud_cost_reference_values():
    assert cm.cloud_cost_per_microsecond(1.00, 4.63) == pytest.approx(5183.59, abs=0.01)
    assert cm.cloud_cost_per_microsecond(0.40, 4.63) == pytest.approx(2073.43, abs=0.01)
    assert cm.cloud_cost_per_microsecond(0.30, 4.63) == pytest.approx(1555.08, abs=0.01)


def test_cloud_cost_rejects_nonpositive():
    with pytest.raises(ValueError):
        cm.cloud_cost_per_microsecond(0.0, 4.63)
    with pytest.raises(ValueError):
        cm.cloud_cost_per_microsecond(1.0, 0.0)


@given(rate=st.floats(0.01, 100.0), perf=st.floats(0.1, 500.0), k=st.floats(0.1, 10.0))
def test_cloud_cost_linear_in_rate_inverse_in_performance(rate, perf, k):
    base = cm.cloud_cost_per_microsecond(rate, perf)
    assert cm.cloud_cost_per_microsecond(k * rate, perf) == pytest.approx(k * base, rel=1e-9)
    assert cm.cloud_cost_per_microsecond(rate, k * perf) == pytest.approx(base / k, rel=1e-9)


def test_cost_per_fe_cmet_reference():
    # g4dn.4xl Spot for the complex, c5.2xl Spot for the ligand.
    total = cm.cost_per_fe(3.879, 1.204 * 0.30, 4.582, 0.34 * 0.30, replicas=3, directions=2)
    assert total == pytest.approx(11.21, abs=0.01)
    assert 8.0 <= total <= 20.0


def test_cost_per_fe_zero_ligand():
    total = cm.cost_per_fe(2.0, 1.0, 0.0, 1.0, replicas=3, directions=2)
    assert total == pytest.approx(6 * 2.0)


def test_cost_per_fe_unit_multiplicity():
    total = cm.cost_per_fe(2.0, 0.5, 3.0, 0.25, replicas=1, directions=1)
    assert total == pytest.approx(2.0 * 0.5 + 3.0 * 0.25)


def test_cost_per_fe_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        cm.cost_per_fe(1.0, 1.0, 1.0, 1.0, replicas=0)


def test_report_entry_basis_must_sum():
    cm.CostReportEntry("ok", 10.0, {"a": 4.0, "b": 6.0})
    with pytest.raises(ValidationError):
        cm.CostReportEntry("bad", 10.0, {"a": 4.0, "b": 5.0})


def test_round_currency_half_up():
    assert cm.round_currency(1.005) == 1.01
    assert cm.round_currency(2.674999) == 2.67
    assert cm.round_currency(-1.005) == -1.01


def test_onprem_entry_breakdown_sums():
    entry = cm.onprem_cost_entry(RTX_NODE, STANDARD_OVERHEADS, 500.0, 1.0)
    assert entry.cost == pytest.approx(sum(entry.basis.values()), abs=1e-12)
    assert entry.basis["node_and_energy"] == 500.0


def test_make_entry_rounds_components_consistently():
    entry = cm.make_entry("x", {"a": 1.00499, "b": 2.00499})
    assert entry.basis == {"a": 1.0, "b": 2.0}
    assert entry.cost == 3.0


@pytest.mark.parametrize(
    "call, named",
    [
        pytest.param(lambda: cm.cost_per_fe(1.0, 1.0, float("nan"), 1.0), "ligand_runtime_h", id="fe-nan-runtime"),
        pytest.param(lambda: cm.cost_per_fe(1.0, -0.1, 1.0, 1.0), "complex_rate", id="fe-negative-rate"),
        pytest.param(lambda: cm.cloud_cost_per_microsecond(float("inf"), 4.0), "rate_per_hour", id="cloud-inf-rate"),
        pytest.param(lambda: cm.OverheadSpec(staff_per_node_year=float("nan")), "staff_per_node_year",
                     id="nan-overhead"),
        pytest.param(lambda: cm.OnPremNodeSpec(2000.0, float("inf"), 300.0, 1, 5.9), "lifetime_years",
                     id="infinite-lifetime"),
        pytest.param(lambda: cm.onprem_cost_entry(RTX_NODE, STANDARD_OVERHEADS, float("inf")), "base_cost_per_us",
                     id="infinite-base-cost"),
    ],
)
def test_cost_inputs_must_be_finite_and_in_range(call, named):
    with pytest.raises(ValidationError, match=named):
        call()
