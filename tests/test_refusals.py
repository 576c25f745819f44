"""Argument refusals across the library: each raises its error type with a message naming it.

Every row of REFUSALS is a call that an earlier guard does not catch first,
so the row reaches the check it names.
"""

import ast
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blochdyn.algebra import (LieBasis, affine_generator_set, decompose_inhomogeneous,
                              hamiltonian_algebra, lie_closure)
from blochdyn.bloch import AffineGenerator, to_affine
from blochdyn.cli import main
from blochdyn.config import template_text
from blochdyn.dynamics import (expm, propagate, semigroup_spectrum, steady_state,
                               steady_state_sweep)
from blochdyn.errors import InputError
from blochdyn.liouville import qubit_superoperators, support_overlap, total_generator, vectorize
from blochdyn.model import (ControlField, ControlSystem, DissipationSpec, dipole_coupling,
                            qubit_system)
from blochdyn.states import CoherenceVector, check_density, from_pure, gell_mann_basis

QUBIT = qubit_system(0.0, 1.0, d1=1.0, d2=0.5)
LADDER = ControlSystem(h0=np.diag([0.0, 1.0, 2.5]), controls=())
RATES = DissipationSpec(dephasing=[[0.0, 0.3], [0.3, 0.0]], relaxation=[[0.0, 0.2], [0.05, 0.0]])
# rotation generators (J_x)_{yz} and (J_y)_{zx} of so(3)
JX = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
JY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
REFUSALS = {
    "control_shape": (lambda: ControlSystem(h0=np.eye(2), controls=(np.eye(3),)),
                      InputError, "control 0 dimension differs from h0"),
    "nan_field_value": (lambda: ControlField(segments=((1.0, (np.nan, 0.0)),)),
                        InputError, "field values must be finite"),
    "no_segments": (lambda: ControlField(segments=()),
                    InputError, "field needs at least one segment"),
    "one_level_basis": (lambda: gell_mann_basis(1), InputError, "dimension must be at least 2"),
    "non_square_density": (lambda: check_density(np.ones((2, 3))),
                           InputError, "density matrix must be square"),
    "state_of_other_dimension": (
        lambda: propagate(QUBIT, DissipationSpec.zero(2),
                          ControlField(segments=((1.0, (0.0, 0.0)),)), np.eye(3) / 3),
        InputError, "system, dissipation and state dimensions differ"),
    "vectorize_non_square": (lambda: vectorize(np.ones((2, 3))),
                             InputError, "expected a square matrix"),
    "qubit_superoperators_of_three_levels": (
        lambda: qubit_superoperators(LADDER, DissipationSpec.zero(3)),
        InputError, "explicit superoperators are defined for two levels"),
    "overlap_of_other_dimensions": (lambda: support_overlap([np.ones((4, 4))], np.ones((9, 9))),
                                    InputError, "control and dissipator dimensions differ"),
    "affine_b_of_other_length": (lambda: AffineGenerator(a=np.eye(2), b=np.ones(3)),
                                 InputError, "A must be square with matching b"),
    "superoperator_non_square_size": (lambda: to_affine(np.ones((5, 5))),
                                      InputError, "superoperator size must be a perfect square"),
    # each of these four once gave an answer (a zero algebra, an all-NaN A)
    # or numpy's LinAlgError
    "closure_of_an_infinite_generator": (lambda: lie_closure([[[0.0, np.inf], [0.0, 0.0]]]),
                                         InputError, "generators must be finite"),
    "affine_image_of_a_nan_superoperator": (lambda: to_affine(np.full((4, 4), np.nan)),
                                            InputError, "superoperator must be finite"),
    "spectrum_of_a_nan_generator": (lambda: semigroup_spectrum(np.full((3, 3), np.nan)),
                                    InputError, "generator must be finite"),
    "split_of_a_basis_with_a_nan_element": (
        lambda: decompose_inhomogeneous(LieBasis(elements=np.full((1, 3, 3), np.nan))),
        InputError, "basis elements must be finite"),
    # a tol that is not positive and finite once gave an "unphysical" valid state
    "density_check_with_a_nan_tol": (lambda: check_density(from_pure([1, 0]), tol=np.nan),
                                     InputError, "tol must be positive and finite, got nan"),
    # once numpy's "zero-size array to reduction operation maximum"
    "density_check_of_an_empty_stack": (lambda: check_density(np.empty((0, 2, 2))),
                                        InputError, "density matrix must be square and nonempty"),
    "exponential_of_a_non_square_matrix": (lambda: expm(np.ones((2, 3))), InputError,
                                           "expected a square matrix or a stack of them"),
    "exponential_of_a_vector": (lambda: expm(np.ones(4)), InputError,
                                "expected a square matrix or a stack of them"),
    "exponential_of_a_non_square_stack": (lambda: expm(np.ones((2, 2, 3))), InputError,
                                          "expected a square matrix or a stack of them"),
    # passed the range check and then failed with an IndexError
    "sweep_of_a_fractional_control": (
        lambda: steady_state_sweep(QUBIT, RATES, 1.5, np.linspace(0.0, 1.0, 6)),
        InputError, "sweep control index 1.5 is not an integer in [0, 2)"),
    # each of these once dropped the imaginary part with only a ComplexWarning
    # and answered for the real part (dim 1, the f = 0 state, "degenerate",
    # A = 0, ranks (0, 0)), or raised numpy's untyped TypeError
    "closure_of_a_complex_generator": (lambda: lie_closure([1j * JX, JY]),
                                       InputError, "generators must be real"),
    "steady_state_at_a_complex_amplitude": (lambda: steady_state(QUBIT, RATES, [1j, 0.0]),
                                            InputError, "f: field amplitudes must be real"),
    "generator_at_a_complex_amplitude": (lambda: total_generator(QUBIT, RATES, [0.0, 1j]),
                                         InputError, "f: field amplitudes must be real"),
    "propagation_of_complex_field_rows": (
        lambda: propagate(QUBIT, RATES, SimpleNamespace(
            segments=((1.0, np.array([0.5, 0.0])), (1.0, np.array([0.0, 2j]))),
            kind="piecewise", total_duration=2.0), from_pure([1, 0])),
        InputError, "segment 1: field amplitudes must be real"),
    "sweep_of_complex_amplitudes": (
        lambda: steady_state_sweep(QUBIT, RATES, 0, 1j * np.linspace(-1.0, 1.0, 7)),
        InputError, "amplitudes must be real"),
    "complex_affine_generator": (lambda: AffineGenerator(a=1j * np.eye(3), b=np.zeros(3)),
                                 InputError, "a must be real"),
    "complex_affine_translation": (lambda: AffineGenerator(a=np.eye(3), b=[0.0, 1j, 0.0]),
                                   InputError, "b must be real"),
    "split_of_a_complex_basis": (
        lambda: decompose_inhomogeneous(LieBasis(elements=1j * np.ones((1, 3, 3)))),
        InputError, "basis elements must be real"),
    "complex_field_value": (lambda: ControlField(segments=((1.0, (1j, 0.0)),)),
                            InputError, "field values must be real"),
    "complex_segment_duration": (lambda: ControlField(segments=((1.0 + 1j, (0.0, 0.0)),)),
                                 InputError, "segment durations must be real"),
    "complex_dephasing": (lambda: DissipationSpec(dephasing=[[0.0, 0.3j], [0.3j, 0.0]],
                                                  relaxation=np.zeros((2, 2))),
                          InputError, "dephasing must be real"),
    # these three once raised an untyped TypeError, or numpy's UFuncTypeError
    # only when the state was rebuilt
    "complex_coherence_vector": (lambda: CoherenceVector(bloch=[0.5j, 0.0, 0.0], trace_part=1.0),
                                 InputError, "bloch must be real"),
    "complex_trace_part": (lambda: CoherenceVector(bloch=[0.0, 0.0, 0.0], trace_part=1.0 + 0.5j),
                           InputError, "trace_part must be real"),
    "complex_hbar": (lambda: ControlSystem(h0=np.eye(2), controls=(), hbar=1j),
                     InputError, "hbar must be real"),
    # these two once raised an untyped TypeError, or returned a coupling
    # with the moment at both (0, 1) and (1, 0), which is not Hermitian
    "complex_qubit_energy": (lambda: qubit_system(0.0, 1j, 1.0, 1.0),
                             InputError, "e2 must be real"),
    "complex_dipole_moment": (lambda: dipole_coupling(3, 0, 1, 0.5j),
                              InputError, "moment must be real"),
    # a bool is an int: this once failed with numpy's "shape mismatch"
    "sweep_of_a_bool_control": (
        lambda: steady_state_sweep(QUBIT, RATES, True, np.linspace(0.0, 1.0, 6)),
        InputError, "sweep control index True is not an integer in [0, 2)"),
    # these two once gave a NaN state and a RuntimeWarning, and propagate
    # then reported a physics error
    "pure_state_with_a_nan_amplitude": (lambda: from_pure([np.nan, 1.0]),
                                        InputError, "pure-state amplitudes must be finite"),
    "pure_state_with_an_infinite_amplitude": (lambda: from_pure([np.inf, 1.0]),
                                              InputError, "pure-state amplitudes must be finite"),
    # accepted with n_controls 2; propagate then said "expected 2 field
    # amplitudes, got 2"
    "field_of_a_two_dimensional_row": (
        lambda: ControlField(segments=((1.0, [[0.5, 0.0]]),)),
        InputError, "field values must be one row of amplitudes per segment"),
    # each of these three once printed a RuntimeWarning on the way to its
    # error: an overflow in the affine images, or in i H0 / hbar, and a
    # dephasing rate that DissipationSpec stored as inf
    "affine_images_that_overflow": (
        lambda: affine_generator_set(QUBIT, DissipationSpec(
            dephasing=np.zeros((2, 2)), relaxation=[[0.0, 1.7e308], [0.0, 0.0]])),
        InputError, "generator pieces overflow: Hamiltonian or rates too large"),
    "hamiltonian_algebra_that_overflows": (
        lambda: hamiltonian_algebra(ControlSystem(h0=np.diag([-1.7e308, 1.0]), controls=(),
                                                  hbar=0.65)),
        InputError, "generators must be finite"),
    "propagation_of_a_step_that_overflows": (
        lambda: propagate(QUBIT, DissipationSpec(dephasing=[[0.0, 1.7e308], [1.7e308, 0.0]],
                                                 relaxation=np.zeros((2, 2))),
                          ControlField.constant([0.0, 0.0], 1.0), from_pure([1, 0]),
                          sample_dt=1.0),
        InputError, "segment 0: generator phase 1.7e+308 passes the 1e+10 bound"),
    # once passed the overrun check and returned the whole field
    "propagation_for_a_nan_duration": (
        lambda: propagate(QUBIT, RATES, ControlField.constant([0.0, 0.0], 1.0),
                          from_pure([1, 0]), duration=np.nan),
        InputError, "field covers [0, 1] but duration nan was requested"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_call_raises_its_error_with_its_message(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)


def test_the_package_refuses_with_input_error_never_a_bare_value_error():
    # InputError is the ValueError that the CLI reads as a config error (exit 2)
    bare = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "blochdyn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            exc = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                bare.append("%s:%d" % (path.name, node.lineno))
    assert bare == []


def test_all_zero_pure_state_is_a_config_error(tmp_path, capsys):
    doc = json.loads(template_text("driven_qubit"))
    doc["initial"] = {"pure": [[0.0, 0.0], [0.0, 0.0]]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: initial.pure: ")
    assert captured.out == "" and not (tmp_path / "x.csv").exists()
