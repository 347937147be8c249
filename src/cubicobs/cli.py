"""Command-line front end.

Exit codes: 0 success, 1 verification or certification failed, 2 bad
configuration or arguments, 3 numerical failure (divergence, no certificate
or stabilizing injection).  Every command is deterministic given its flags;
the one-sided certificate search takes an explicit ``--seed`` (default 0).
"""

from __future__ import annotations

import argparse
import json
import sys

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
    return np.array(rows)


def _print_verdict(verdict: cert.EquilibriumVerdict) -> None:
    print(f"equilibrium={verdict.status}")
    if verdict.status == cert.COUNTEREXAMPLE:
        vtxt = " ".join(f"{v:.6g}" for v in np.ravel(verdict.v))
        print(f"equilibrium_counterexample=[{vtxt}]")
        print(f"equilibrium_residual={verdict.residual:.3e}")


def cmd_design(args) -> int:
    try:
        cfg = model.load_config(args.config)
    except model.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    plant = cfg.plant
    try:
        E = design.compute_E(plant.C, plant.D)
    except design.DecouplingInfeasibleError as exc:
        print(f"decoupling infeasible: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    if args.L is not None:
        try:
            L = parse_matrix_flag(args.L)
        except model.ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        if L.shape != (plant.n, plant.n_y):
            print(
                f"error: --L must be {plant.n}x{plant.n_y}, got {L.shape}",
                file=sys.stderr,
            )
            return EXIT_CONFIG_ERROR
    else:
        T = np.eye(plant.n) - E @ plant.C
        try:
            L = design.stabilize_L(T, plant.A, plant.C, args.auto_margin)
        except design.GainSearchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL_FAILURE
    result = design.design_GJ(plant.A, plant.C, E, L, D=plant.D)
    prev = cfg.observer
    cfg.observer = model.ObserverParams(
        G=result.G,
        J=result.J,
        E=result.E,
        N=prev.N if prev is not None else np.zeros((plant.n, plant.n_y)),
        theta=prev.theta if prev is not None else np.eye(plant.n_y),
        alpha=prev.alpha if prev is not None else 1.0,
    )
    doc = model.config_to_dict(cfg)
    doc["design_report"] = {
        "residual_sylvester": result.residual_sylvester,
        "residual_decoupling": result.residual_decoupling,
        "spectral_abscissa": design.spectral_abscissa(result.G),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"residual_sylvester={result.residual_sylvester:.3e}")
    print(f"residual_decoupling={result.residual_decoupling:.3e}")
    print(f"spectral_abscissa={design.spectral_abscissa(result.G):.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        cfg = model.load_config(args.config)
    except model.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if cfg.observer is None:
        print("error: config has no observer block", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    obs = cfg.observer
    plant = cfg.plant
    mode = cfg.lipschitz

    if args.check_only:
        if cfg.certificate is None:
            print("error: --check-only needs a certificate block", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        crt = cfg.certificate
        mats = (plant.A, plant.C, plant.D, obs.E, obs.G, obs.J)
        res_syl, res_dec = design.verify_structure(*mats)
        scale = max(1.0, *(float(np.max(np.abs(M), initial=0.0)) for M in mats))
        structure_ok = max(res_syl, res_dec) <= STRUCTURE_RTOL * scale
        try:
            if crt.beta is not None:
                if not isinstance(mode, model.Lipschitz):
                    print(
                        "error: certificate.beta needs a lipschitz.gamma bound",
                        file=sys.stderr,
                    )
                    return EXIT_CONFIG_ERROR
                lmi_margin = cert.verify_lmi_lipschitz(
                    crt.P, crt.beta, mode.gamma, obs.G, obs.E, plant.C
                )
            else:
                if not isinstance(mode, model.OneSidedLipschitz):
                    print(
                        "error: certificate.mu1/mu2 need a one-sided bound",
                        file=sys.stderr,
                    )
                    return EXIT_CONFIG_ERROR
                lmi_margin = cert.verify_lmi_osl(
                    crt.P, crt.mu1, crt.mu2, mode.rho, mode.a, mode.b,
                    obs.G, obs.E, plant.C,
                )
        except cert.CertificateError as exc:
            print(f"certificate invalid: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
        ncond = cert.verify_N_condition(crt.P, obs.N, plant.C, obs.theta, obs.alpha)
        verdict = cert.check_equilibrium_uniqueness(
            obs.G, obs.N, plant.C, obs.theta,
            cert.EquilibriumSearchOptions(P=crt.P, alpha=obs.alpha),
        )
        print(f"residual_sylvester={res_syl:.3e}")
        print(f"residual_decoupling={res_dec:.3e}")
        print(f"lmi_margin={lmi_margin:.6e}")
        print(f"n_margin={ncond.margin:.6e}")
        print(f"n_classification={ncond.classification}")
        if ncond.classification == "semidefinite-pass":
            print("warning: cubic-gain condition holds only semidefinitely")
        _print_verdict(verdict)
        ok = (
            structure_ok
            and lmi_margin < 0
            and ncond.classification in ("strict", "semidefinite-pass")
            and verdict.status != cert.COUNTEREXAMPLE
        )
        return EXIT_OK if ok else EXIT_VERIFICATION_FAILED

    # --search-P
    alpha = args.alpha if args.alpha is not None else obs.alpha
    if not alpha > 0:
        print("error: --alpha must be positive", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        found = cert.search_P(
            mode, obs.G, obs.E, plant.C, cert.CertificateSearchOptions(seed=args.seed)
        )
    except cert.FeasibilitySearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    N = cert.cubic_gain(found.P, plant.C, obs.theta, alpha)
    ncond = cert.verify_N_condition(found.P, N, plant.C, obs.theta, alpha)
    verdict = cert.check_equilibrium_uniqueness(
        obs.G, N, plant.C, obs.theta,
        cert.EquilibriumSearchOptions(P=found.P, alpha=alpha),
    )
    cfg.observer = model.ObserverParams(
        G=obs.G, J=obs.J, E=obs.E, N=N, theta=obs.theta, alpha=alpha
    )
    cfg.certificate = found
    print(f"lmi_margin={found.lmi_margin:.6e}")
    if isinstance(mode, model.Lipschitz):
        print(f"gamma_max={cert.max_lipschitz_gamma(obs.G, obs.E, plant.C):.6g}")
    print(f"n_margin={ncond.margin:.6e}")
    print(f"n_classification={ncond.classification}")
    if ncond.classification == "semidefinite-pass":
        print("warning: cubic-gain condition holds only semidefinitely")
    _print_verdict(verdict)
    if args.out:
        model.save_config(cfg, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        cfg = model.load_config(args.config)
        truth_cfg = model.load_config(args.truth) if args.truth else None
    except model.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if cfg.observer is None:
        print("error: config has no observer block", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    design_plant = cfg.plant
    truth_plant = truth_cfg.plant if truth_cfg is not None else design_plant
    n = design_plant.n
    try:
        x0 = (
            parse_matrix_flag(args.x0).ravel()
            if args.x0
            else np.zeros(n)
        )
        xhat0 = (
            parse_matrix_flag(args.xhat0).ravel()
            if args.xhat0
            else np.zeros(n)
        )
        inputs = [
            exprlang.parse_input_signal(text)
            for text in (args.input or [sim.DEFAULT_INPUT_SIGNAL])
        ]
        if design_plant.n_u == 0:
            inputs = []
        elif len(inputs) == 1 and design_plant.n_u > 1:
            inputs = inputs * design_plant.n_u
        run_cfg = sim.SimConfig(
            h=args.step,
            t_end=args.t_end,
            x0=x0,
            xhat0=xhat0,
            input_signal=tuple(inputs),
            prehistory=args.prehistory,
            cubic_enabled=not args.no_cubic,
        )
        result = sim.simulate(truth_plant, design_plant, cfg.observer, run_cfg)
    except (model.ConfigError, exprlang.ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except sim.SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    sim.write_trajectory_csv(result, args.out)
    print(f"jo_end={result.jo[-1]:.12g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_reproduce_paper(args) -> int:
    try:
        report = sim.example_study(args.out)
    except sim.SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"jo_cubic_nominal={report.nominal.jo_cubic:.12g}")
    print(f"jo_linear_nominal={report.nominal.jo_linear:.12g}")
    print(f"ratio_nominal={report.nominal.ratio:.12g}")
    print(f"jo_cubic_uncertain={report.uncertain.jo_cubic:.12g}")
    print(f"jo_linear_uncertain={report.uncertain.jo_linear:.12g}")
    print(f"ratio_uncertain={report.uncertain.ratio:.12g}")
    for path in report.files:
        print(f"wrote {path}")
    ok = report.uncertain.ratio < 1.0 and np.isfinite(
        [report.nominal.jo_cubic, report.nominal.jo_linear,
         report.uncertain.jo_cubic, report.uncertain.jo_linear]
    ).all()
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


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
    group.add_argument("--auto-margin", type=float,
                       help="compute L with spectral abscissa <= -MARGIN")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("certify", help="verify or search for a certificate")
    p.add_argument("--config", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check-only", action="store_true",
                       help="recompute margins for the stored certificate")
    group.add_argument("--search-P", action="store_true", dest="search_p",
                       help="find P and derive the cubic gain")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="integrate plant and observer")
    p.add_argument("--config", required=True)
    p.add_argument("--truth", default=None,
                   help="alternate truth-model config (mismatch study)")
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--input", action="append",
                   help="drive expression in t (repeatable; default "
                        f'"{sim.DEFAULT_INPUT_SIGNAL}")')
    p.add_argument("--x0", default=None, help='initial state, e.g. "[0;0]"')
    p.add_argument("--xhat0", default=None, help='initial estimate, e.g. "[-5;-5]"')
    p.add_argument("--prehistory", choices=["analytic", "zero"], default="analytic")
    p.add_argument("--no-cubic", action="store_true",
                   help="disable the cubic correction term")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
