"""Command-line interface: simulate | analyze | sweep | template.

simulate writes a trajectory table, analyze prints a structural report
(support overlap, algebra dimensions, spectrum, steady state), sweep writes
the attractor locus of a constant-control sweep with its conic fit, and
template emits one of the shipped example configurations.

Exit codes: 0 success, 2 configuration error, 3 physics/feasibility error.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .algebra import decompose_inhomogeneous, hamiltonian_algebra, lie_closure
from .bloch import _affine_images
from .config import load_config, template_names, template_text
from .dynamics import _fixed_points, propagate, semigroup_spectrum, steady_state_sweep
from .errors import ConfigError, PhysicsError
from .liouville import _combine, generator_pieces, support_overlap
from .tolerances import PROPAGATION_TOL, positive_finite


def _fmt(x):
    return "%.17g" % x


def _bloch_labels(dim):
    if dim == 2:
        return ["x", "y", "z"]
    return ["v%d" % (a + 1) for a in range(dim * dim - 1)]


@contextmanager
def _writing(path):
    """path opened for writing with LF endings; an OSError on the way is a ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError("cannot write %s: %s" % (path, exc.strerror)) from exc


def _write_table(path, preamble, header, rows):
    # LF endings and 17 significant digits keep reruns byte-identical
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with _writing(path) as fh:
        for line in preamble:
            fh.write("# %s\n" % line)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(fmt % tuple(row))


def cmd_simulate(cfg, out, sample_dt=None, tol=PROPAGATION_TOL):
    """Propagate the configured run and write the trajectory table."""
    dt = sample_dt if sample_dt is not None else cfg.sample_dt
    traj = propagate(
        cfg.system,
        cfg.dissipation,
        cfg.field,
        cfg.rho0,
        sample_dt=dt,
        duration=cfg.duration,
        validity_tol=tol,
    )
    header = ["time"]
    columns = [traj.times]
    if "bloch" in cfg.outputs:
        header += _bloch_labels(traj.dim)
        columns += [traj.bloch[:, a] for a in range(traj.bloch.shape[1])]
    header.append("trace_part")
    columns.append(traj.trace_part)
    if "purity" in cfg.outputs:
        header.append("purity")
        columns.append(traj.purities())
    if "rho" in cfg.outputs:
        for i in range(traj.dim):
            for j in range(traj.dim):
                header += ["rho%d%d_re" % (i, j), "rho%d%d_im" % (i, j)]
                columns += [traj.rho[:, i, j].real, traj.rho[:, i, j].imag]
    rows = np.column_stack(columns)
    _write_table(out, (), header, rows)
    return 0


def analyze_report(cfg):
    """Structural analysis of the configured system as a plain dict; one generator build."""
    sys_, spec = cfg.system, cfg.dissipation
    pieces = generator_pieces(sys_, spec)
    # a list, as affine_generator_set returns and for the same reason
    gens = list(_affine_images(pieces))
    overlap = support_overlap(pieces[1:-1], pieces[-1])
    ham = hamiltonian_algebra(sys_)
    closure = lie_closure(gens)
    hom_dim, trans_dim = decompose_inhomogeneous(closure)
    spectrum = semigroup_spectrum(pieces[0] + pieces[-1])
    report = {
        "levels": sys_.dim,
        "n_controls": sys_.n_controls,
        "hbar": sys_.hbar,
        "support_overlap": [list(p) for p in overlap],
        "cancellation_feasible": bool(overlap),
        "hamiltonian_algebra_dim": ham.dim,
        "affine_closure_dim": closure.dim,
        "homogeneous_dim": hom_dim,
        "translation_dim": trans_dim,
        "spectrum": {
            "eigenvalues": [[ev.real, ev.imag] for ev in spectrum.eigenvalues],
            "max_real_part": spectrum.max_real_part,
            "forward_bounded": spectrum.forward_bounded,
            "zero_modes": spectrum.zero_modes,
        },
    }
    v, singular = _fixed_points(_combine(gens, np.zeros(sys_.n_controls))[None])
    if singular is None:
        report["steady_state"] = {"bloch": v[0].tolist(), "norm": float(np.linalg.norm(v[0]))}
        report["equilibrium_note"] = "unique"
    else:
        report["steady_state"] = None
        report["equilibrium_note"] = (
            "non-unique equilibrium (null space dimension %d)" % singular[1])
    return report


def _print_analysis(report):
    print("system: %d levels, %d controls, hbar=%s" % (
        report["levels"], report["n_controls"], _fmt(report["hbar"])))
    if report["support_overlap"]:
        pairs = ", ".join("(%d,%d)" % (r, c) for r, c in report["support_overlap"])
        print("control/dissipator support overlap: %s" % pairs)
    else:
        print("control/dissipator support overlap: empty "
              "(cancellation infeasible: controls cannot reach the dissipator entries)")
    print("hamiltonian algebra dimension: %d" % report["hamiltonian_algebra_dim"])
    print("affine closure dimension: %d (homogeneous %d, translation %d)" % (
        report["affine_closure_dim"], report["homogeneous_dim"], report["translation_dim"]))
    spec = report["spectrum"]
    eigs = "; ".join("%s%+.17gi" % (_fmt(re), im) for re, im in spec["eigenvalues"])
    print("generator spectrum at f=0: %s" % eigs)
    print("  max real part %s, forward bounded: %s, zero modes: %d" % (
        _fmt(spec["max_real_part"]), "yes" if spec["forward_bounded"] else "no",
        spec["zero_modes"]))
    if report["steady_state"] is None:
        print("steady state at f=0: %s" % report["equilibrium_note"])
    else:
        ss = report["steady_state"]
        print("steady state at f=0: (%s), norm %s" % (
            ", ".join(_fmt(v) for v in ss["bloch"]), _fmt(ss["norm"])))


def cmd_analyze(cfg, out=None):
    report = analyze_report(cfg)
    _print_analysis(report)
    if out:
        with _writing(out) as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2))
            fh.write("\n")
    return 0


def cmd_sweep(cfg, out, control=None, amplitudes=None):
    """Sweep one control over constant amplitudes, write attractors and fit."""
    if control is None:
        control = cfg.sweep_control
    if amplitudes is None:
        amplitudes = cfg.sweep_amplitudes
    if control is None or amplitudes is None:
        raise ConfigError("sweep needs a control index and amplitudes "
                          "(config sweep section or --control/--amplitudes)")
    rep = steady_state_sweep(cfg.system, cfg.dissipation, control, amplitudes)
    preamble = [
        "conic fit: kind=%s" % rep.kind,
        "conic coefficients (u^2, uv, v^2, u, v, 1): %s"
        % ", ".join(_fmt(c) for c in rep.conic_coeffs),
        "conic residual: %s, discriminant: %s"
        % (_fmt(rep.conic_residual), _fmt(rep.discriminant)),
        "plane residual: %s" % _fmt(rep.plane_residual),
        "max point norm: %s (pure-state radius %s)"
        % (_fmt(rep.max_point_norm), _fmt(rep.ball_radius)),
    ]
    labels = _bloch_labels(cfg.system.dim)
    header = ["amplitude"] + labels + ["norm"]
    norms = np.linalg.norm(rep.points, axis=1)
    rows = np.column_stack([rep.amplitudes, rep.points, norms])
    _write_table(out, preamble, header, rows)
    for line in preamble:
        print(line)
    return 0


def cmd_template(name, out=None):
    text = template_text(name)
    if out:
        with _writing(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blochdyn",
        description="Simulate and analyze controlled dissipative few-level systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="propagate and write a trajectory table")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--sample-dt", type=float, default=None)
    sim.add_argument("--tol", type=float, default=None,
                     help="state validity tolerance along the trajectory")

    ana = sub.add_parser("analyze", help="structural report: overlap, algebras, spectrum")
    ana.add_argument("--config", required=True)
    ana.add_argument("--out", default=None, help="also write the report as JSON")

    swp = sub.add_parser("sweep", help="steady states over a constant-control sweep")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", required=True)
    swp.add_argument("--control", type=int, default=None)
    swp.add_argument("--amplitudes", default=None,
                     help="comma-separated override of the config sweep list")

    tpl = sub.add_parser("template", help="emit a shipped configuration")
    tpl.add_argument("name", choices=template_names())
    tpl.add_argument("--out", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refused before any work: the parent directory of --out must exist
        if args.out is not None and (os.path.isdir(args.out)
                                     or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise ConfigError("--out %s is a directory or lies in a missing one" % args.out)
        if args.command == "template":
            return cmd_template(args.name, out=args.out)
        if args.command == "simulate":
            # propagate's own rule, applied here so that the error names the flag
            tol = PROPAGATION_TOL if args.tol is None else positive_finite("--tol", args.tol)
            dt = None if args.sample_dt is None else positive_finite("--sample-dt", args.sample_dt)
            return cmd_simulate(load_config(args.config), args.out, sample_dt=dt, tol=tol)
        cfg = load_config(args.config)
        if args.command == "analyze":
            return cmd_analyze(cfg, out=args.out)
        amplitudes = None
        if args.amplitudes is not None:
            try:
                amplitudes = [float(a) for a in args.amplitudes.split(",") if a.strip()]
            except ValueError:
                raise ConfigError("--amplitudes must be comma-separated numbers")
        return cmd_sweep(cfg, args.out, control=args.control, amplitudes=amplitudes)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print("physics error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
