"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -s) carrying
the measured quantity and, where a runtime budget applies, the wall time of
the already-warm operation. Expected values are computed inside this module
from closed forms or from independent constructions, never read back from
the package.
"""

import subprocess
import sys
import time

import numpy as np

from blochdyn.algebra import (
    affine_generator_set,
    decompose_inhomogeneous,
    hamiltonian_algebra,
    lie_closure,
)
from blochdyn.bloch import ball_containment, quasi_spin_translation
from blochdyn.dynamics import (
    expm,
    propagate,
    semigroup_spectrum,
    steady_state,
    steady_state_sweep,
)
from blochdyn.liouville import (
    build_dissipator,
    qubit_superoperators,
    support_overlap,
    total_generator,
)
from blochdyn.model import (
    ControlField,
    ControlSystem,
    DissipationSpec,
    qubit_system,
)
from blochdyn.states import from_pure
from blochdyn.tolerances import CLOSURE_TOL, PROPAGATION_TOL


def _report(num, name, ok, detail):
    print("ACCEPTANCE %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d %s failed: %s" % (num, name, detail)


def random_qubit(rng, cp_safe=True):
    """Random two-level system with strictly positive parameters."""
    omega = rng.uniform(0.5, 2.0)
    d1 = rng.uniform(0.2, 1.5)
    d2 = rng.uniform(0.2, 1.5)
    g12 = rng.uniform(0.05, 0.5)
    g21 = rng.uniform(0.05, 0.5)
    if cp_safe:
        big = 0.5 * (g12 + g21) * rng.uniform(1.0, 2.5)
    else:
        big = rng.uniform(0.05, 0.8)
    sys_ = qubit_system(0.0, omega, d1=d1, d2=d2)
    spec = DissipationSpec(
        dephasing=[[0.0, big], [big, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    return sys_, spec, dict(omega=omega, d1=d1, d2=d2, big=big, g12=g12, g21=g21)


def random_density(rng, dim=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = np.linalg.qr(a)[0]
    p = rng.uniform(0.05, 1.0, size=dim)
    p /= p.sum()
    return (q * p) @ q.conj().T


def hand_displays(omega, d1, d2, big, g12, g21):
    """Symbol-substituted two-level superoperator matrices."""
    l0 = np.diag([0.0, -omega, omega, 0.0]).astype(complex)
    l1 = d1 * np.array(
        [[0, -1, 1, 0], [-1, 0, 0, 1], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex
    )
    l2 = d2 * np.array(
        [[0, -1j, -1j, 0], [1j, 0, 0, -1j], [1j, 0, 0, -1j], [0, 1j, 1j, 0]],
        dtype=complex,
    )
    ld = np.array(
        [[-g21, 0, 0, g12], [0, -big, 0, 0], [0, 0, -big, 0], [g21, 0, 0, -g12]],
        dtype=complex,
    )
    return l0, l1, l2, ld


def test_01_superoperator_fidelity():
    rng = np.random.default_rng(101)
    params = []
    for _ in range(3):
        omega = rng.uniform(0.3, 2.5)
        d1, d2 = rng.uniform(0.2, 2.0, size=2)
        big = rng.uniform(0.05, 0.8)
        g12, g21 = rng.uniform(0.02, 0.6, size=2)
        params.append((omega, d1, d2, big, g12, g21))

    cases = []
    for omega, d1, d2, big, g12, g21 in params:
        sys_ = qubit_system(0.0, omega, d1=d1, d2=d2)
        spec = DissipationSpec(
            dephasing=[[0.0, big], [big, 0.0]],
            relaxation=[[0.0, g12], [g21, 0.0]],
        )
        cases.append((sys_, spec))

    def build_all():
        return [qubit_superoperators(sys_, spec) for sys_, spec in cases]

    build_all()  # warm caches before timing
    # only the library call is timed; the oracle and the comparison are not
    t0 = time.perf_counter()
    built = build_all()
    elapsed = time.perf_counter() - t0
    worst = max(float(np.max(np.abs(g - w)))
                for got, p in zip(built, params)
                for g, w in zip(got, hand_displays(*p)))
    ok = worst <= 1e-14 and elapsed < 1e-3
    _report(1, "superoperator-fidelity", ok,
            "max entry dev %.2e, %.3f ms" % (worst, elapsed * 1e3))


def test_02_support_overlap_empty():
    rng = np.random.default_rng(202)
    built = []
    for _ in range(50):
        omega = rng.uniform(0.3, 2.5)
        d1, d2 = rng.uniform(0.05, 2.0, size=2)
        big = rng.uniform(0.01, 1.0)
        g12 = rng.uniform(0.01, 0.8)
        g21 = rng.uniform(0.0, 0.8)
        sys_ = qubit_system(0.0, omega, d1=d1, d2=d2)
        spec = DissipationSpec(
            dephasing=[[0.0, big], [big, 0.0]],
            relaxation=[[0.0, g12], [g21, 0.0]],
        )
        built.append(qubit_superoperators(sys_, spec))

    def check_all():
        n_bad = 0
        for _, l1, l2, ld in built:
            if support_overlap((l1, l2), ld) != ():
                n_bad += 1
        return n_bad

    check_all()
    t0 = time.perf_counter()
    n_bad = check_all()
    elapsed = time.perf_counter() - t0
    ok = n_bad == 0 and elapsed < 10e-3
    _report(2, "non-cancellation", ok,
            "%d/50 sweeps overlap, %.2f ms" % (n_bad, elapsed * 1e3))


def test_03_algebra_dimensions():
    rng = np.random.default_rng(303)
    failures = []
    t0 = time.perf_counter()
    for trial in range(20):
        omega = rng.uniform(0.4, 2.0)
        d1, d2 = rng.uniform(0.3, 1.5, size=2)
        g12 = rng.uniform(0.15, 0.5)
        g21 = g12 * rng.uniform(0.1, 0.6)  # strictly asymmetric pumping
        big = (g12 + g21) * rng.uniform(1.2, 2.0)  # away from the isotropic point
        sys_ = qubit_system(0.0, omega, d1=d1, d2=d2)
        spec = DissipationSpec(
            dephasing=[[0.0, big], [big, 0.0]],
            relaxation=[[0.0, g12], [g21, 0.0]],
        )
        hdim = hamiltonian_algebra(sys_).dim
        basis = lie_closure(affine_generator_set(sys_, spec))
        split = decompose_inhomogeneous(basis)
        if hdim != 4 or basis.dim != 12 or split != (9, 3):
            failures.append((trial, hdim, basis.dim, split))
    elapsed = time.perf_counter() - t0
    # the counts hold at the rank tolerance they are stated at
    ok = CLOSURE_TOL == 1e-10 and not failures and elapsed < 1.0
    _report(3, "algebra-dimensions", ok,
            "%d/20 failures at tol %g, %.3f s" % (len(failures), CLOSURE_TOL, elapsed))


def test_04_quasi_spin_translations_vanish():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst_b = 0.0
    for dim in (2, 3):
        for _ in range(10):
            sym = np.abs(rng.standard_normal((dim, dim)))
            sym = 0.5 * (sym + sym.T)
            np.fill_diagonal(sym, 0.0)
            deph = np.abs(rng.standard_normal((dim, dim)))
            deph = deph + deph.T
            np.fill_diagonal(deph, 0.0)
            spec = DissipationSpec(dephasing=deph, relaxation=sym)
            worst_b = max(worst_b, float(np.linalg.norm(quasi_spin_translation(spec))))
    # translation block of the closed algebra must be rank zero
    sys2 = qubit_system(0.0, 1.3, d1=0.7, d2=0.4)
    spec2 = DissipationSpec(
        dephasing=[[0.0, 0.3], [0.3, 0.0]],
        relaxation=[[0.0, 0.12], [0.12, 0.0]],
    )
    split2 = decompose_inhomogeneous(lie_closure(affine_generator_set(sys2, spec2)))
    c01 = np.zeros((3, 3), dtype=complex)
    c01[0, 1] = c01[1, 0] = 1.0
    c12 = np.zeros((3, 3), dtype=complex)
    c12[1, 2] = c12[2, 1] = 0.8
    sys3 = ControlSystem(h0=np.diag([0.0, 1.0, 2.2]), controls=(c01, c12))
    deph3 = np.array([[0.0, 0.15, 0.2], [0.15, 0.0, 0.3], [0.2, 0.3, 0.0]])
    relax3 = np.array([[0.0, 0.2, 0.0], [0.2, 0.0, 0.3], [0.0, 0.3, 0.0]])
    spec3 = DissipationSpec(dephasing=deph3, relaxation=relax3)
    split3 = decompose_inhomogeneous(lie_closure(affine_generator_set(sys3, spec3)))
    elapsed = time.perf_counter() - t0
    ok = worst_b <= 1e-12 and split2[1] == 0 and split3[1] == 0 and elapsed < 1.0
    _report(4, "quasi-spin-translations", ok,
            "max |b| %.2e, translation dims (%d, %d), %.3f s"
            % (worst_b, split2[1], split3[1], elapsed))


def test_05_dissipator_spectrum():
    rng = np.random.default_rng(505)
    cases = [random_qubit(rng) for _ in range(20)]
    fields = rng.uniform(-1.5, 1.5, size=(20, 2))

    def check_all():
        results = []
        for (sys_, spec, _), f in zip(cases, fields):
            ld = build_dissipator(spec)
            results.append((ld, semigroup_spectrum(total_generator(sys_, spec, f)),
                            semigroup_spectrum(-ld)))
        return results

    check_all()
    # only the library calls are timed; the oracle spectrum of each
    # dissipator and its comparison with the closed form are not
    t0 = time.perf_counter()
    results = check_all()
    elapsed = time.perf_counter() - t0
    worst_eig = 0.0
    for (_, _, p), (ld, _, _) in zip(cases, results):
        eigs = np.linalg.eigvals(ld)
        expected = np.sort([0.0, -p["big"], -p["big"], -(p["g12"] + p["g21"])])
        worst_eig = max(worst_eig, float(np.max(np.abs(np.sort(eigs.real) - expected))),
                        float(np.max(np.abs(eigs.imag))))
    worst_real = max(full.max_real_part for _, full, _ in results)
    n_unflagged = sum(reverse.forward_bounded for _, _, reverse in results)
    ok = (worst_eig <= 1e-12 and worst_real <= 1e-12 and n_unflagged == 0
          and elapsed < 10e-3)
    _report(5, "dissipator-spectrum", ok,
            "eig dev %.2e, max Re %.2e, %d unflagged, %.2f ms"
            % (worst_eig, worst_real, n_unflagged, elapsed * 1e3))


def test_06_closed_form_decay():
    big, g12, g21 = 0.3, 0.2, 0.05
    sys_ = qubit_system(0.0, 1.4, d1=0.8, d2=0.5)
    spec = DissipationSpec(
        dephasing=[[0.0, big], [big, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    horizon = 10.0 / big
    field = ControlField.constant([0.0, 0.0], duration=horizon)
    rho0 = from_pure([1, 1])
    t0 = time.perf_counter()
    traj = propagate(sys_, spec, field, rho0, sample_dt=horizon / 400)
    elapsed = time.perf_counter() - t0
    coh = np.abs(traj.rho[:, 0, 1])
    coh_err = float(np.max(np.abs(coh - 0.5 * np.exp(-big * traj.times))))
    gsum = g12 + g21
    pstar = g12 / gsum
    p11 = np.real(traj.rho[:, 0, 0])
    p11_expect = pstar + (0.5 - pstar) * np.exp(-gsum * traj.times)
    pop_err = float(np.max(np.abs(p11 - p11_expect)))
    ok = coh_err <= 1e-8 and pop_err <= 1e-8 and elapsed < 0.1
    _report(6, "closed-form-decay", ok,
            "coherence dev %.2e, population dev %.2e, %.1f ms"
            % (coh_err, pop_err, elapsed * 1e3))


def test_07_ball_containment():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    worst_norm = 0.0
    n_outside = 0
    for trial in range(1000):
        sys_, spec, _ = random_qubit(rng, cp_safe=True)
        n_seg = rng.integers(2, 4)
        segs = tuple(
            (rng.uniform(0.3, 1.2), tuple(rng.uniform(-1.5, 1.5, size=2)))
            for _ in range(n_seg)
        )
        field = ControlField(segments=segs)
        if trial % 3 == 0:
            # pure states start exactly on the ball surface
            rho0 = from_pure(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        else:
            rho0 = random_density(rng)
        traj = propagate(sys_, spec, field, rho0,
                         sample_dt=field.total_duration / 25)
        norms = np.linalg.norm(traj.bloch, axis=1)
        worst_norm = max(worst_norm, float(np.max(norms)))
        if np.any(norms > 1.0 + 1e-7):
            n_outside += 1
        assert ball_containment(traj) == (not np.any(norms > 1.0 + 1e-7))
    # zero rates: motion stays on the initial spherical shell
    worst_drift = 0.0
    zero = DissipationSpec.zero(2)
    for _ in range(100):
        sys_, _, _ = random_qubit(rng)
        field = ControlField(segments=(
            (rng.uniform(0.5, 1.5), tuple(rng.uniform(-1.5, 1.5, size=2))),
            (rng.uniform(0.5, 1.5), tuple(rng.uniform(-1.5, 1.5, size=2))),
        ))
        traj = propagate(sys_, zero, field, random_density(rng),
                         sample_dt=field.total_duration / 20)
        norms = np.linalg.norm(traj.bloch, axis=1)
        purs = traj.purities()
        worst_drift = max(
            worst_drift,
            float(np.max(np.abs(norms - norms[0]))),
            float(np.max(np.abs(purs - purs[0]))),
        )
    elapsed = time.perf_counter() - t0
    # containment is judged at the excess it is stated at
    ok = PROPAGATION_TOL == 1e-7 and n_outside == 0 and worst_drift <= 1e-9 and elapsed < 10.0
    _report(7, "ball-containment", ok,
            "max norm %.9f, %d/1000 escapes at tol %g, zero-rate drift %.2e, %.2f s"
            % (worst_norm, n_outside, PROPAGATION_TOL, worst_drift, elapsed))


def test_08_attractor_geometry():
    big, g12, g21 = 0.15, 0.2, 0.05
    sys_ = qubit_system(0.0, 1.4, d1=0.8, d2=0.5)
    spec = DissipationSpec(
        dephasing=[[0.0, big], [big, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    t0 = time.perf_counter()
    fixed = steady_state(sys_, spec, (0.0, 0.0))
    zstar = (g12 - g21) / (g12 + g21)
    solve_dev = float(np.max(np.abs(fixed.bloch - np.array([0.0, 0.0, zstar]))))
    # long-time propagation must land on the same point
    horizon = 180.0
    field = ControlField.constant([0.0, 0.0], duration=horizon)
    traj = propagate(sys_, spec, field, from_pure([1, 1j]), sample_dt=horizon / 60)
    prop_dev = float(np.max(np.abs(traj.bloch[-1] - fixed.bloch)))
    report = steady_state_sweep(
        sys_, spec, 0, [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    )
    elapsed = time.perf_counter() - t0
    ok = (solve_dev <= 1e-12 and prop_dev <= 1e-6
          and report.conic_residual <= 1e-8 and report.discriminant < 0
          and report.kind == "ellipse" and report.strictly_inside
          and elapsed < 1.0)
    _report(8, "attractor-geometry", ok,
            "solve dev %.2e, propagation dev %.2e, conic residual %.2e, "
            "discriminant %.3f, inside=%s, %.3f s"
            % (solve_dev, prop_dev, report.conic_residual,
               report.discriminant, report.strictly_inside, elapsed))


def test_09_numerics():
    rng = np.random.default_rng(909)

    def taylor30(m):
        n = m.shape[0]
        acc = np.eye(n, dtype=complex)
        for k in range(30, 0, -1):
            acc = np.eye(n, dtype=complex) + (m / k) @ acc
        return acc

    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m *= rng.uniform(0.2, 5.0) / np.linalg.norm(m, 2)
        ref = taylor30(m)
        dev = np.linalg.norm(expm(m) - ref) / np.linalg.norm(ref)
        worst_rel = max(worst_rel, float(dev))

    # step-halving on the fixed-step route against the exact semigroup
    big, g12, g21 = 0.3, 0.2, 0.05
    sys_ = qubit_system(0.0, 1.4, d1=0.8, d2=0.5)
    spec = DissipationSpec(
        dephasing=[[0.0, big], [big, 0.0]],
        relaxation=[[0.0, g12], [g21, 0.0]],
    )
    segs = ((2.0, (0.8, 0.3)),)
    exact = propagate(sys_, spec, ControlField(segments=segs), from_pure([1, 0]),
                      sample_dt=1.0)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        run = propagate(sys_, spec, ControlField(segments=segs, kind="sampled"),
                        from_pure([1, 0]), sample_dt=dt)
        errs.append(float(np.max(np.abs(run.rho[-1] - exact.rho[-1]))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ratios_ok = all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)
    ok = worst_rel <= 1e-12 and ratios_ok
    _report(9, "numerics", ok,
            "expm rel dev %.2e, halving ratios %.2f / %.2f"
            % (worst_rel, ratios[0], ratios[1]))


def test_10_cli_end_to_end(tmp_path):
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "blochdyn"] + args,
            capture_output=True, timeout=120,
        )

    templates = ("driven_qubit", "quasi_spin_qubit", "three_level_ladder")
    n_ok = 0
    n_identical = 0
    total = 0
    for name in templates:
        cfg = tmp_path / ("%s.json" % name)
        proc = run(["template", name, "--out", str(cfg)])
        assert proc.returncode == 0, proc.stderr.decode()
        for command in ("simulate", "analyze", "sweep"):
            total += 1
            outputs = []
            for attempt in range(2):
                out = tmp_path / ("%s_%s_%d.out" % (name, command, attempt))
                proc = run([command, "--config", str(cfg), "--out", str(out)])
                if proc.returncode != 0:
                    print("command failed:", name, command, proc.stderr.decode())
                    break
                outputs.append((out.read_bytes(), proc.stdout))
            else:
                n_ok += 1
                if outputs[0] == outputs[1]:
                    n_identical += 1
    ok = n_ok == total and n_identical == total
    _report(10, "cli-end-to-end", ok,
            "%d/%d runs exit 0, %d/%d byte-identical" % (n_ok, total, n_identical, total))
