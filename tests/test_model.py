"""System assembly, dissipation specs, and control field tests."""

import numpy as np
import pytest

from blochdyn.model import (
    ControlField,
    ControlSystem,
    DissipationSpec,
    dipole_coupling,
    qubit_system,
)


def test_qubit_system_matrices():
    sys = qubit_system(0.0, 1.0, d1=0.5, d2=0.25)
    assert sys.dim == 2
    assert sys.n_controls == 2
    assert np.allclose(sys.h0, np.diag([0.0, 1.0]))
    assert np.allclose(sys.controls[0], 0.5 * np.array([[0, 1], [1, 0]]))
    assert np.allclose(sys.controls[1], 0.25 * np.array([[0, -1j], [1j, 0]]))


def test_qubit_system_requires_ordered_levels():
    with pytest.raises(ValueError, match="ordered"):
        qubit_system(1.0, 0.0, d1=1.0, d2=1.0)


def test_control_system_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ControlSystem(h0=np.array([[0.0, 1.0], [0.0, 1.0]]), controls=())


def test_dipole_coupling_patterns():
    mx = dipole_coupling(3, 0, 1, 0.8, axis="x")
    assert mx[0, 1] == pytest.approx(0.8)
    assert mx[1, 0] == pytest.approx(0.8)
    assert np.count_nonzero(mx) == 2
    my = dipole_coupling(3, 1, 2, 0.5, axis="y")
    assert my[1, 2] == pytest.approx(-0.5j)
    assert my[2, 1] == pytest.approx(0.5j)
    assert np.count_nonzero(my) == 2
    with pytest.raises(ValueError):
        dipole_coupling(3, 1, 1, 1.0, axis="x")
    with pytest.raises(ValueError):
        dipole_coupling(3, 0, 1, 1.0, axis="q")


def test_dissipation_spec_validation():
    good = DissipationSpec(
        dephasing=[[0.0, 0.2], [0.2, 0.0]],
        relaxation=[[0.0, 0.1], [0.05, 0.0]],
    )
    assert good.dim == 2
    with pytest.raises(ValueError):
        DissipationSpec(
            dephasing=[[0.0, 0.2], [0.3, 0.0]],  # not symmetric
            relaxation=np.zeros((2, 2)),
        )
    with pytest.raises(ValueError):
        DissipationSpec(
            dephasing=np.zeros((2, 2)),
            relaxation=[[0.0, -0.1], [0.0, 0.0]],  # negative rate
        )
    with pytest.raises(ValueError):
        DissipationSpec(
            dephasing=[[0.5, 0.0], [0.0, 0.0]],  # diagonal must vanish
            relaxation=np.zeros((2, 2)),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_numbers_rejected(bad):
    with pytest.raises(ValueError, match="h0 must be a finite square matrix"):
        ControlSystem(h0=np.diag([0.0, bad]), controls=())
    with pytest.raises(ValueError, match="control 0 must be a finite square matrix"):
        ControlSystem(h0=np.zeros((2, 2)), controls=(np.array([[0.0, bad], [bad, 0.0]]),))
    with pytest.raises(ValueError, match="hbar"):
        ControlSystem(h0=np.zeros((2, 2)), controls=(), hbar=bad)
    with pytest.raises(ValueError, match="rates must be finite and nonnegative"):
        DissipationSpec(dephasing=[[0.0, bad], [bad, 0.0]], relaxation=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="rates must be finite and nonnegative"):
        DissipationSpec(dephasing=np.zeros((2, 2)), relaxation=[[0.0, bad], [0.0, 0.0]])
    with pytest.raises(ValueError, match="durations must be positive and finite"):
        ControlField(segments=((1.0, (0.5,)), (bad, (0.5,))))


def rounded_rates():
    # g_kn + s_k + s_n summed in two orders: symmetric in exact arithmetic,
    # asymmetric by one rounding in double precision
    g = np.array([[0.0, 0.1, 0.7], [0.1, 0.0, 0.3], [0.7, 0.3, 0.0]])
    s = np.array([0.1, 0.2, 0.3])
    m = g + s[:, None] + s[None, :]
    np.fill_diagonal(m, 0.0)
    assert 0 < np.max(np.abs(m - m.T)) < 1e-15
    return m


def test_dephasing_symmetric_up_to_rounding():
    m = rounded_rates()
    spec = DissipationSpec(dephasing=m, relaxation=np.zeros((3, 3)))
    assert np.array_equal(spec.dephasing, spec.dephasing.T)
    assert np.max(np.abs(spec.dephasing - m)) < 1e-15
    # symmetric input is stored exactly as given
    sym = DissipationSpec(dephasing=[[0.0, 0.3], [0.3, 0.0]], relaxation=np.zeros((2, 2)))
    assert np.array_equal(sym.dephasing, [[0.0, 0.3], [0.3, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        DissipationSpec(dephasing=[[0.0, 0.3], [0.301, 0.0]], relaxation=np.zeros((2, 2)))


def test_dissipation_zero_constructor():
    z = DissipationSpec.zero(3)
    assert np.count_nonzero(z.dephasing) == 0
    assert np.count_nonzero(z.relaxation) == 0


def test_field_segments_and_duration():
    field = ControlField(segments=((1.0, (0.5, 0.0)), (2.0, (-0.5, 0.25))))
    assert field.n_controls == 2
    assert field.total_duration == pytest.approx(3.0)
    assert field.kind == "piecewise"


def test_field_constant_constructor():
    field = ControlField.constant([0.7, -0.2], duration=4.0)
    assert field.total_duration == pytest.approx(4.0)
    assert len(field.segments) == 1
    assert np.array_equal(field.segments[0][1], [0.7, -0.2])


def test_field_validation():
    with pytest.raises(ValueError):
        ControlField(segments=((-1.0, (0.5,)),))  # negative duration
    with pytest.raises(ValueError):
        ControlField(segments=((1.0, (0.5,)), (1.0, (0.5, 0.2))))  # ragged widths
    with pytest.raises(ValueError):
        ControlField(segments=((1.0, (0.5,)),), kind="spline")



def test_rates_near_the_float_limit_are_stored_finite():
    # g + g^T overflowed here and stored inf for a finite, symmetric input
    spec = DissipationSpec(dephasing=[[0.0, 1.7e308], [1.7e308, 0.0]],
                           relaxation=np.zeros((2, 2)))
    assert spec.dephasing[0, 1] == spec.dephasing[1, 0] == 1.7e308
