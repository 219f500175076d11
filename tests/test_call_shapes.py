"""The library calls of ``perfbench/worker.py``, made in its exact shapes.

The benchmark's traced mode passes ``lat`` by position to the counting
functions and reads a short run's partial result from the error it raises.
A signature change that shifts a positional argument must fail here, not
only in a benchmark run.
"""

import numpy as np
import pytest

import multfiber as mf
from multfiber.errors import BudgetExhaustedError


@pytest.mark.parametrize(
    "shifts",
    [
        [1, -1, 2, -2, 3, -3],  # rich: six proper zero-sum partitions
        [1, 2, 3, -6],  # generic: no proper zero-sum subset
    ],
)
def test_benchmark_worker_calls(shifts):
    spec = mf.spectrum_from_obj({"mu": [str(m) for m in shifts]})
    report = mf.fiber_report(spec)
    subsets = mf.zero_sum_subsets(spec)
    lat = mf.enumerate_lattice(spec)
    assert len(subsets) == report.zero_sum_subsets
    assert len(lat.partitions) == report.lattice_partitions

    # traced_count and _exact_count
    assert mf.fiber_size(spec, lat, "subspectra") == report.s_d
    assert mf.fiber_size(spec, lat, "refinement") == report.s_d
    size = mf.fiber_size_closed_form(spec, lat)
    assert size == report.s_d
    classes = mf.value_classes(spec)
    assert mf.monic_centered_count(spec, lat, size, classes) == report.mc_count
    assert mf.conjugacy_count(spec, lat, size, classes) == report.mp_count

    # traced_verify
    expected = (spec.d - 1) * size
    assert expected == report.e_I0
    result = mf.solve_system(spec, None, expected)
    assert len(result.tuples) == expected
    lam = np.array([complex(x / n, y / n) for x, y, n in spec.lam])
    for t in result.tuples:
        assert np.abs(np.array(mf.forward_multipliers(t.zeta)) - lam).max() < 1e-8
    assert mf.orbit_count(result.tuples, classes) == report.mc_count

    # _solve: a short run's partial result rides on the error
    with pytest.raises(BudgetExhaustedError) as short:
        mf.solve_system(spec, mf.SolverConfig(budget_factor=0), expected)
    assert short.value.result.starts == 0
    assert short.value.result.tuples == ()
