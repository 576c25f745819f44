"""Property tests of the affine Lie closure over random admissible systems, N = 2...4.

The closure is the span of the generators' brackets, so it depends on the
generators only through their span: an invertible real recombination must
give the same dimension and the same (homogeneous, translation) split.
Symmetric relaxation leaves the maximally mixed state fixed, so every
piece's affine image has b = 0 and the closure has no translations.
Examples are derandomized, so every run draws the same systems.
"""

import numpy as np
from hypothesis import given, settings

from blochdyn.algebra import affine_generator_set, decompose_inhomogeneous, lie_closure
from blochdyn.model import DissipationSpec
from test_propagation_properties import CASES, admissible_system

PROPERTIES = settings(derandomize=True, max_examples=30, deadline=None)


def invertible(rng, k):
    """A real k x k matrix with condition number below 100."""
    while True:
        w = rng.standard_normal((k, k))
        if np.linalg.cond(w) < 100.0:
            return w


@PROPERTIES
@given(**CASES)
def test_closure_does_not_see_a_recombination_of_the_generators(dim, seed):
    rng = np.random.default_rng(seed)
    gens = np.array(affine_generator_set(*admissible_system(rng, dim)))
    mixed = np.einsum("ij,jkl->ikl", invertible(rng, len(gens)), gens)
    basis, again = lie_closure(gens), lie_closure(mixed)
    assert again.dim == basis.dim
    assert decompose_inhomogeneous(again) == decompose_inhomogeneous(basis)


@PROPERTIES
@given(**CASES)
def test_symmetric_relaxation_has_no_translation(dim, seed):
    rng = np.random.default_rng(seed)
    sys, spec = admissible_system(rng, dim)
    relax = spec.relaxation + spec.relaxation.T
    gens = affine_generator_set(sys, DissipationSpec(dephasing=spec.dephasing, relaxation=relax))
    for g in gens:
        assert np.max(np.abs(g[:-1, -1])) <= 1e-14 * max(1.0, np.max(np.abs(g)))
    assert decompose_inhomogeneous(lie_closure(gens))[1] == 0
