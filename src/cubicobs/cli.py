"""Command-line front end.

Exit codes: 0 success, 1 verification or certification failed, 2 bad
configuration or arguments, 3 numerical failure (divergence, no certificate
or stabilizing injection).  Every command is deterministic given its flags.

Commands raise instead of printing their own errors: :func:`main` reports a
:class:`~cubicobs.model.ConfigError`, an :class:`~cubicobs.exprlang.ExprError`
or an ``--out`` path that cannot be written (``OSError``) as ``error: ...``
with exit 2, and a failed gain, certificate, simulation or linear-algebra
routine (``numpy.linalg.LinAlgError``) as ``error: ...`` with exit 3.
Numeric flags are checked to be positive and finite when the arguments are
parsed, matrix flags to be finite when they are read.  Configs are written
only through :func:`~cubicobs.model.save_config`.

``certify --search-P`` only supplies the certificate and ``N``: both modes
then run and print the same checks, and ``--out`` is written only when all pass.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import cert, design, exprlang, model, sim

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

# structural residuals above this, relative to the largest entry of the
# matrices involved, mean the LMI does not describe the stored observer
STRUCTURE_RTOL = 1e-9


def parse_matrix_flag(text: str) -> np.ndarray:
    """Parse ``"[1 2; 3 4]"`` (rows split on ';', entries on spaces/commas)."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    rows = []
    for chunk in body.split(";"):
        entries = [e for e in chunk.replace(",", " ").split() if e]
        if not entries:
            raise model.ConfigError(f"matrix flag {text!r}: empty row")
        try:
            rows.append([float(e) for e in entries])
        except ValueError as exc:
            raise model.ConfigError(f"matrix flag {text!r}: {exc}") from None
    if not rows or len({len(r) for r in rows}) != 1:
        raise model.ConfigError(f"matrix flag {text!r}: ragged or empty rows")
    M = np.array(rows)
    if not np.isfinite(M).all():
        raise model.ConfigError(f"matrix flag {text!r}: entries must be finite")
    return M


def _print_output_error(C, E) -> None:
    """Print ``output_error=autonomous`` when ``(I - C E) C`` is within
    rounding of 0: the output error ``C (x - xhat)`` then obeys an equation
    that no plant term, mismatch or disturbance enters.  A residual that
    overflows prints nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.max(np.abs(C - (C @ E) @ C))
    if residual <= STRUCTURE_RTOL * max(1.0, np.max(np.abs(C)), np.max(np.abs(E))):
        print("output_error=autonomous")


def _load_with_observer(path) -> model.SystemConfig:
    cfg = model.load_config(path)
    if cfg.observer is None:
        raise model.ConfigError("config has no observer block")
    return cfg


def cmd_design(args) -> int:
    cfg = model.load_config(args.config)
    plant = cfg.plant
    try:
        E = design.compute_E(plant.C, plant.D)
    except design.DecouplingInfeasibleError as exc:
        print(f"decoupling infeasible: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    if args.L is not None:
        L = parse_matrix_flag(args.L)
        if L.shape != (plant.n, plant.n_y):
            raise model.ConfigError(f"--L must be {plant.n}x{plant.n_y}, got {L.shape}")
    else:
        T = np.eye(plant.n) - E @ plant.C
        L = design.stabilize_L(T, plant.A, plant.C, args.auto_margin)
    result = design.design_GJ(plant.A, plant.C, E, L, D=plant.D)
    gains = dict(G=result.G, J=result.J, E=result.E)
    prev = cfg.observer
    cfg = replace(cfg, observer=model.ObserverParams(**gains) if prev is None
                  else replace(prev, **gains))
    model.save_config(cfg, args.out)
    print(f"residual_sylvester={result.residual_sylvester:.3e}")
    print(f"residual_decoupling={result.residual_decoupling:.3e}")
    print(f"spectral_abscissa={design.spectral_abscissa(result.G):.6g}")
    _print_output_error(plant.C, result.E)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.check_only and args.out is not None:
        raise model.ConfigError("--out: config writes apply only to --search-P")
    cfg = _load_with_observer(args.config)
    plant, mode = cfg.plant, cfg.lipschitz
    if args.search_p:
        obs = cfg.observer
        crt = cert.search_P(mode, obs.G, obs.E, plant.C)
        N = cert.cubic_gain(crt.P, plant.C, obs.theta, obs.alpha)
        cfg = replace(cfg, observer=replace(obs, N=N), certificate=crt)
    elif cfg.certificate is None:
        raise model.ConfigError("--check-only needs a certificate block")
    obs, crt = cfg.observer, cfg.certificate

    mats = (plant.A, plant.C, plant.D, obs.E, obs.G, obs.J)
    res_syl, res_dec = design.verify_structure(*mats)
    scale = max(1.0, *(float(np.max(np.abs(M), initial=0.0)) for M in mats))
    structure_ok = max(res_syl, res_dec) <= STRUCTURE_RTOL * scale
    try:
        if crt.beta is not None:
            margin = cert.verify_lmi_lipschitz(crt.P, crt.beta, mode.gamma,
                                               obs.G, obs.E, plant.C)
        else:
            margin = cert.verify_lmi_osl(crt.P, crt.mu1, crt.mu2, mode.rho, mode.a,
                                         mode.b, obs.G, obs.E, plant.C)
    except np.linalg.LinAlgError:
        raise  # a ValueError too, but a numerical failure, not a verdict
    except ValueError as exc:  # CertificateError, or a multiplier <= 0
        print(f"certificate invalid: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    ncond = cert.verify_N_condition(crt.P, obs.N, plant.C, obs.theta, obs.alpha)
    verdict = cert.check_equilibrium_uniqueness(obs.G, obs.N, plant.C, obs.theta)
    print(f"residual_sylvester={res_syl:.3e}")
    print(f"residual_decoupling={res_dec:.3e}")
    _print_output_error(plant.C, obs.E)
    print(f"lmi_margin={margin:.6e}")
    if isinstance(mode, model.Lipschitz):
        print(f"gamma_max={cert.max_lipschitz_gamma(obs.G, obs.E, plant.C):.6g}")
    print(f"n_margin={ncond.margin:.6e}")
    print(f"n_classification={ncond.classification}")
    print(f"n_identity_residual={ncond.identity_residual:.3e}")
    print(f"equilibrium={verdict.status}")
    if verdict.status == cert.COUNTEREXAMPLE:
        vtxt = " ".join(f"{v:.6g}" for v in np.ravel(verdict.v))
        print(f"equilibrium_counterexample=[{vtxt}]")
        print(f"equilibrium_residual={verdict.residual:.3e}")
    if not (structure_ok and margin < 0
            and ncond.classification in ("strict", "semidefinite-pass")
            and verdict.status != cert.COUNTEREXAMPLE):
        return EXIT_VERIFICATION_FAILED
    if args.out:
        model.save_config(cfg, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_with_observer(args.config)
    truth_cfg = model.load_config(args.truth) if args.truth else cfg
    design_plant = cfg.plant
    n = design_plant.n
    x0 = parse_matrix_flag(args.x0).ravel() if args.x0 else np.zeros(n)
    xhat0 = parse_matrix_flag(args.xhat0).ravel() if args.xhat0 else np.zeros(n)
    inputs = args.input or [sim.DEFAULT_INPUT_SIGNAL] * design_plant.n_u
    if len(inputs) == 1 and design_plant.n_u > 1:
        inputs = inputs * design_plant.n_u
    run_cfg = sim.SimConfig(h=args.step, t_end=args.t_end, x0=x0, xhat0=xhat0,
                            input_signal=tuple(inputs))
    obs = cfg.observer
    if args.no_cubic:
        obs = replace(obs, N=np.zeros_like(obs.N))
    result = sim.simulate(truth_cfg.plant, design_plant, obs, run_cfg)
    sim.write_trajectory_csv(result, args.out)
    print(f"jo_end={result.jo[-1]:.12g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_reproduce_paper(args) -> int:
    report = sim.example_study(args.out)
    print(report.summary(), end="")
    for path in report.files:
        print(f"wrote {path}")
    ok = report.uncertain.ratio < 1.0 and np.isfinite(
        [report.nominal.jo_cubic, report.nominal.jo_linear,
         report.uncertain.jo_cubic, report.uncertain.jo_linear]
    ).all()
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def positive_float(text: str) -> float:
    """argparse type for step sizes, horizons and margins."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicobs",
        description="Cubic observer design, certification, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="compute E, G, J for a plant config")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--L", help='output injection, e.g. "[10;-3]"')
    group.add_argument("--auto-margin", type=positive_float,
                       help="compute L with spectral abscissa <= -MARGIN")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("certify", help="verify or search for a certificate")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check-only", action="store_true",
                       help="recompute margins for the stored certificate")
    group.add_argument("--search-P", action="store_true", dest="search_p",
                       help="find P and derive the cubic gain")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="integrate plant and observer")
    p.add_argument("--config", required=True)
    p.add_argument("--truth", default=None,
                   help="alternate truth-model config (mismatch study)")
    p.add_argument("--t-end", type=positive_float, default=20.0)
    p.add_argument("--step", type=positive_float, default=0.01)
    p.add_argument("--input", action="append",
                   help="drive expression in t (repeatable; default "
                        f'"{sim.DEFAULT_INPUT_SIGNAL}")')
    p.add_argument("--x0", default=None, help='initial state, e.g. "[0;0]"')
    p.add_argument("--xhat0", default=None, help='initial estimate, e.g. "[-5;-5]"')
    p.add_argument("--no-cubic", action="store_true",
                   help="run the linear observer: the same observer with N = 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce-paper",
                       help="run the bundled nominal/mismatch comparison study")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config-error code
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (model.ConfigError, exprlang.ExprError, OSError) as exc:
        # an OSError is an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (design.GainSearchError, cert.FeasibilitySearchError,
            sim.SimulationError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
