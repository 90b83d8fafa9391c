import numpy as np
import pytest

import arrowtime as at


def test_free_model_is_trivial():
    model = at.delta_model(0.0)
    p = np.geomspace(1e-3, 40.0, 64)
    assert np.all(model.transmission(p) == 1.0)
    assert np.all(model.reflection(p) == 0.0)


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 7.5])
def test_unitarity(lam):
    model = at.delta_model(lam)
    p = np.geomspace(1e-3, 50.0, 512)
    defect = np.abs(model.reflection(p)) ** 2 + np.abs(model.transmission(p)) ** 2 - 1.0
    assert np.max(np.abs(defect)) < 1e-12


def test_transmission_against_reflection_and_fd_solve():
    model = at.delta_model(1.0, 1.0)
    exact = float(np.abs(model.transmission(1.0)) ** 2)
    assert abs(exact - (1.0 - float(np.abs(model.reflection(1.0)) ** 2))) < 1e-12
    fd = at.fd_transmission_probability(1.0, 1.0, 1.0)
    assert abs(fd - exact) < 1e-4


def test_attractive_coupling_rejected():
    with pytest.raises(ValueError):
        at.delta_model(-0.5)


def test_moller_map_identity_and_isometry(packet_state):
    free = at.moller_map(packet_state, at.delta_model(0.0))
    assert np.array_equal(free.amplitudes, packet_state.amplitudes)
    mapped = at.moller_map(packet_state, at.delta_model(2.0))
    assert np.array_equal(mapped.amplitudes, packet_state.amplitudes)
    assert mapped.norm_squared() == packet_state.norm_squared()


def test_equivalence_defect_free_case(packet_state):
    assert at.equivalence_defect(packet_state, at.delta_model(0.0)) == 0.0


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_equivalence_defect_interacting(packet_state, lam):
    assert at.equivalence_defect(packet_state, at.delta_model(lam)) < 1e-10


def test_asymptotic_overlap_free_case(packet_state):
    assert abs(at.asymptotic_overlap(packet_state, [at.delta_model(0.0)], -5.0)[0] - 1.0) < 1e-10


def test_asymptotic_overlap_rows_equal_single_model_calls(packet_state):
    models = [at.delta_model(lam) for lam in (0.0, 1.0, 2.0)]
    times = [-5.0, -20.0]
    rows = at.asymptotic_overlap(packet_state, models, times)
    assert rows.shape == (3, 2)
    for model, row in zip(models, rows):
        assert np.array_equal(row, at.asymptotic_overlap(packet_state, [model], times)[0])


def test_asymptotic_overlap_requires_past_time(packet_state):
    with pytest.raises(ValueError):
        at.asymptotic_overlap(packet_state, [at.delta_model(1.0)], 0.5)
