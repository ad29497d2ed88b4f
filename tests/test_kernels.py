import numpy as np

from conftest import small_grid
from isingvi import bp_iterate, mf_iterate


def test_record_false_skips_objective():
    model = small_grid(3, 3, 0.4, 0.1)
    _x, trace = mf_iterate(model, max_steps=100, tol=0.0, record=False)
    assert np.isnan(trace.objective[1:]).all()
    _nu, traceb = bp_iterate(model, max_steps=100, tol=0.0, record=False)
    assert np.isnan(traceb.objective[1:]).all()
