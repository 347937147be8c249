"""Seeded input generator for the cubicobs benchmark.

Plain numpy/scipy only: nothing here imports cubicobs.  Every input is
written as a config JSON that ``cubicobs.model.load_config`` reads, plus a
``manifest.json`` the benchmark keeps for itself (run parameters and the
facts its independent checks need).  The program only ever sees the
config files and the drive expressions.

delayed-ensemble
    A fresh family of mismatched truth/design plant pairs per seed.  The
    orders, expression templates, delays-per-slot and step counts are the
    same for every seed, so every seed asks for the same amount of
    simulation work; only the numbers change.  Each scenario is integrated
    here by an independent reference RK4 (``reference.py``) and redrawn
    if it leaves a bounded box, so every scenario stays bounded.

certify-sweep
    One family of systems is drawn from the fixed ``FAMILY_SEED``; the run
    seed then applies a fresh random orthogonal change of state, output
    and disturbance coordinates to every instance.  LMI feasibility,
    ``gamma*``, observability and equilibria are invariant under that
    change, so every seed poses instances of identical difficulty with
    different numbers.  A family drawn per seed would not do: a search
    that gives up costs ~1000x a search that succeeds, so the share of
    give-ups in a fresh family would swing ``wall_s`` by more than any
    bound the benchmark can hold.  The cost of the program's randomized
    searches still moves by 10-25% from one coordinate change to another,
    so the seed draws ``SWEEP_VARIANTS`` of them and passes cycle through.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import numpy as np
from scipy.linalg import solve_continuous_lyapunov
from scipy.signal import place_poles

import reference

H = 0.01
T_END = 3.0
ENSEMBLE_ORDERS = (4, 5, 6)
ESTIMATES_PER_PLANT = 3
THETA_SCALE = 0.05  # theta = I overshoots RK4's stability region at h = 0.01
BOUND_BOX = 50.0

FAMILY_SEED = 20191222
SWEEP_ORDERS = (2, 3, 4, 5, 6, 7, 8)
SWEEP_FRACTIONS = (0.3, 0.6, 0.9)
DESIGN_MARGIN = 1.0
# Consecutive passes cycle through this many coordinate changes, so a run's
# median averages over how the searches' random starts meet the rotated data.
SWEEP_VARIANTS = 4


def _num(v: float) -> float:
    """Round to the digits written into the expression text."""
    return float(f"{v:.6g}")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _abscissa(M: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(M).real))


def _haar(rng: np.random.Generator, k: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _decoupling(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    return D @ np.linalg.pinv(C @ D)


def _observable(M: np.ndarray, C: np.ndarray) -> bool:
    n = M.shape[0]
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ M)
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s[0])) == n


def _place(TA: np.ndarray, C: np.ndarray, poles: np.ndarray) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return place_poles(TA.T, C.T, poles).gain_matrix.T


def _observer(rng, A, C, D, pole_lo, pole_hi):
    """Structural design done independently of cubicobs.design."""
    n = A.shape[0]
    E = _decoupling(C, D)
    T = np.eye(n) - E @ C
    TA = T @ A
    poles = -np.sort(rng.uniform(pole_lo, pole_hi, n))
    L = _place(TA, C, poles)
    G = TA - L @ C
    J = TA @ E + L @ (np.eye(C.shape[0]) - C @ E)
    return E, T, L, G, J


def _config(A, C, D, n_u, lipschitz, observer=None, delta=(), tau=(),
            f_u=None, f_g=None, f_L=None) -> dict:
    n, n_y, n_g = A.shape[0], C.shape[0], D.shape[1]
    doc = {
        "n": n, "n_u": n_u, "n_y": n_y, "n_g": n_g,
        "A": A.tolist(), "C": C.tolist(), "D": D.tolist(),
        "delta": list(delta), "tau": list(tau),
        "f_u": f_u if f_u is not None else ["0"] * n,
        "f_g": f_g if f_g is not None else ["0"] * n_g,
        "f_L": f_L if f_L is not None else ["0"] * n,
        "lipschitz": lipschitz,
    }
    if observer is not None:
        doc["observer"] = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                           for k, v in observer.items()}
    return doc


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# --- delayed-ensemble -----------------------------------------------------

def _expressions(rng, n: int, scale: float = 1.0):
    """Fixed templates per state index with seeded coefficients.

    Returns (texts, callables) for f_u, f_g, f_L.  Every f_L references
    both output delay slots across the state vector (``y1@1`` on even
    components, ``y2@2`` on odd ones), so the observer's delayed-output
    lookup runs at every stage.
    """

    def c(lo, hi):
        return _num(scale * rng.uniform(lo, hi))

    fu_t, fu_f, fl_t, fl_f = [], [], [], []
    for i in range(n):
        b = c(0.2, 0.6)
        if i % 2 == 0:
            fu_t.append(f"{_fmt(b)}*u1@1")
            fu_f.append(lambda x, u, y, b=b: b * u(1)[0])
        else:
            fu_t.append(f"{_fmt(b)}*u2@2")
            fu_f.append(lambda x, u, y, b=b: b * u(2)[1])
        a, g = c(0.05, 0.2), c(0.05, 0.2)
        j = (i + 1) % n
        if i % 2 == 0:
            fl_t.append(f"{_fmt(a)}*sin(x{j + 1}) + {_fmt(g)}*tanh(y1@1)")
            fl_f.append(lambda x, u, y, a=a, g=g, j=j:
                        a * math.sin(x[j]) + g * math.tanh(y(1)[0]))
        else:
            fl_t.append(f"{_fmt(a)}*cos(x{j + 1})*u1 - {_fmt(g)}*tanh(y2@2)")
            fl_f.append(lambda x, u, y, a=a, g=g, j=j:
                        a * math.cos(x[j]) * u(0)[0] - g * math.tanh(y(2)[1]))
    d = c(0.05, 0.15)
    fg_t = [f"{_fmt(d)}*tanh(x1*x2)"]
    fg_f = [lambda x, u, y, d=d: d * math.tanh(x[0] * x[1])]
    return (fu_t, fg_t, fl_t), (fu_f, fg_f, fl_f)


def _hurwitz(rng, n, lo, hi, coupling, floor):
    while True:
        A = -np.diag(rng.uniform(lo, hi, n)) + coupling * rng.standard_normal((n, n))
        if _abscissa(A) <= -floor:
            return A


def _ensemble_plant(rng, n):
    n_u = n_y = 2
    A = _hurwitz(rng, n, 1.0, 3.0, 0.3, 0.5)
    A_truth = A + 0.1 * rng.standard_normal((n, n))
    while _abscissa(A_truth) > -0.3:
        A_truth = A + 0.1 * rng.standard_normal((n, n))
    while True:
        C = rng.standard_normal((n_y, n))
        D = rng.standard_normal((n, 1))
        if np.linalg.norm(C @ D) > 0.3 and _observable(A, C):
            break
    E, T, L, G, J = _observer(rng, A, C, D, 2.0, 4.0)
    P = solve_continuous_lyapunov(G.T, -np.eye(n))
    P = 0.5 * (P + P.T)
    theta = THETA_SCALE * np.eye(n_y)
    N = -np.linalg.solve(P, C.T @ theta)
    delta = (H * int(rng.integers(2, 10)), H * int(rng.integers(11, 30)))
    tau = (H * int(rng.integers(1, 8)), H * int(rng.integers(9, 25)))
    delta_truth = tuple(d + H * int(rng.integers(0, 4)) for d in delta)
    tau_truth = tuple(d + H * int(rng.integers(0, 4)) for d in tau)
    design_txt, design_fn = _expressions(rng, n)
    truth_txt, truth_fn = _expressions(rng, n, scale=1.1)
    observer = {"G": G, "J": J, "E": E, "N": N, "theta": theta, "alpha": 1.0}
    design = _config(A, C, D, n_u, {"gamma": 1.0}, observer, delta, tau, *design_txt)
    truth = _config(A_truth, C, D, n_u, {"gamma": 1.0}, observer, delta_truth,
                    tau_truth, *truth_txt)
    return design, truth, design_fn, truth_fn


def _drive(rng, n_u):
    texts, fns = [], []
    for _ in range(n_u):
        amp, w, ph = _num(rng.uniform(0.2, 0.8)), _num(rng.uniform(0.5, 2.0)), \
            _num(rng.uniform(0.0, 1.0))
        texts.append(f"{_fmt(amp)}*sin({_fmt(w)}*t + {_fmt(ph)})")
        fns.append(lambda t, amp=amp, w=w, ph=ph: amp * math.sin(w * t + ph))
    return texts, fns


def _ref_plant(doc, fns):
    return reference.Plant(
        A=np.array(doc["A"], float), C=np.array(doc["C"], float),
        D=np.array(doc["D"], float), delta=tuple(doc["delta"]), tau=tuple(doc["tau"]),
        f_u=fns[0], f_g=fns[1], f_L=fns[2],
    )


def delayed_ensemble(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    scenarios = []
    for k, n in enumerate(ENSEMBLE_ORDERS):
        while True:
            design, truth, design_fn, truth_fn = _ensemble_plant(rng, n)
            texts, drive_fns = _drive(rng, 2)
            x0 = 0.5 * rng.standard_normal(n)
            xhat0s = [x0 + 2.0 * rng.standard_normal(n) for _ in range(ESTIMATES_PER_PLANT)]
            obs = design["observer"]
            ref_obs = {key: np.array(obs[key], float) for key in ("G", "J", "E", "N", "theta")}
            runs = [reference.simulate(_ref_plant(truth, truth_fn), _ref_plant(design, design_fn),
                                       ref_obs, drive_fns, H, T_END, x0, xh)
                    for xh in xhat0s]
            if all(r is not None and r[1] < BOUND_BOX for r in runs):
                break
        files = {}
        for role, doc in (("design", design), ("truth", truth)):
            files[role] = f"plant{k}_{role}.json"
            _write(os.path.join(out_dir, files[role]), doc)
        for xh, (jo_end, _) in zip(xhat0s, runs):
            scenarios.append({
                "design": files["design"], "truth": files["truth"],
                "x0": x0.tolist(), "xhat0": xh.tolist(), "inputs": texts,
                "jo_reference": jo_end,
            })
    return {"h": H, "t_end": T_END, "scenarios": scenarios}


# --- certify-sweep --------------------------------------------------------

def hinf_norm(G: np.ndarray, T: np.ndarray, rtol: float = 1e-10) -> float:
    """``||(sI - G)^{-1} T||_inf`` for Hurwitz ``G`` by Hamiltonian bisection.

    ``g`` exceeds the norm iff the Hamiltonian ``[[G, T T'/g^2], [-I, -G']]``
    has no eigenvalue on the imaginary axis.
    """
    n = G.shape[0]
    TT = T @ T.T

    def above(g):
        Hm = np.block([[G, TT / g**2], [-np.eye(n), -G.T]])
        ev = np.linalg.eigvals(Hm)
        return not np.any(np.abs(ev.real) <= 1e-9 * (1.0 + np.abs(ev)))

    # the norm is at least the gain at s = 0
    lo = float(np.linalg.norm(np.linalg.solve(-G, T), 2))
    hi = 2.0 * lo + 1e-12
    while not above(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _sweep_dims(n):
    n_g = 1 if n <= 5 else 2
    return n_g + 1, n_g


def _design_instance(rng, n):
    n_y, n_g = _sweep_dims(n)
    while True:
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((n_y, n))
        D = rng.standard_normal((n, n_g))
        if np.linalg.matrix_rank(C @ D) != n_g:
            continue
        E = _decoupling(C, D)
        TA = (np.eye(n) - E @ C) @ A
        if not _observable(TA, C):
            continue
        # solvable by construction: an injection placing every pole at or
        # beyond -(margin + 0.5) exists
        L = _place(TA, C, -(DESIGN_MARGIN + 0.5 + np.arange(n) * 0.5))
        if _abscissa(TA - L @ C) <= -DESIGN_MARGIN - 0.25:
            return {"A": A, "C": C, "D": D, "margin": DESIGN_MARGIN}


def _stable_observer(rng, n):
    n_y, n_g = _sweep_dims(n)
    while True:
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((n_y, n))
        D = rng.standard_normal((n, n_g))
        if np.linalg.matrix_rank(C @ D) != n_g:
            continue
        E, T, L, G, J = _observer(rng, A, C, D, 1.0, 4.0)
        if _abscissa(G) <= -0.5:
            return A, C, D, E, T, G, J


def _certify_instance(rng, n, frac):
    A, C, D, E, T, G, J = _stable_observer(rng, n)
    gamma_star = 1.0 / hinf_norm(G, T)
    return {"A": A, "C": C, "D": D, "E": E, "G": G, "J": J,
            "gamma_star": gamma_star, "frac": frac}


def _equilibrium_instance(rng, n, planted: bool):
    """A closed-form gain (no nonzero equilibrium, since PG + G'P = -I), or
    a gain with the planted nonzero equilibrium ``v``."""
    A, C, D, E, T, G, J = _stable_observer(rng, n)
    inst = {"A": A, "C": C, "D": D, "E": E, "G": G, "J": J, "planted": None}
    if not planted:
        P = solve_continuous_lyapunov(G.T, -np.eye(n))
        inst["N"] = -np.linalg.solve(0.5 * (P + P.T), C.T)
        return inst
    v = rng.standard_normal(n)
    v *= rng.uniform(0.5, 2.0) / np.linalg.norm(v)
    Cv = C @ v
    k = float(Cv @ Cv)  # v'Kv with theta = I
    N0 = 0.1 * rng.standard_normal((n, C.shape[0]))
    # N C v = -G v / k, so G v + (v'Kv) N C v = 0
    inst["N"] = N0 - np.outer(G @ v + k * (N0 @ Cv), Cv) / (k * k)
    inst["planted"] = v
    return inst


def sweep_family() -> list[dict]:
    """The fixed family, before the run seed's change of coordinates."""
    rng = np.random.default_rng(FAMILY_SEED)
    family = []
    for k, n in enumerate(SWEEP_ORDERS):
        # one input per stage per system; the equilibrium input alternates
        # between a planted equilibrium (even k) and a closed-form gain
        family.append({
            "n": n,
            "design": _design_instance(rng, n),
            "certify": [_certify_instance(rng, n, SWEEP_FRACTIONS[k % len(SWEEP_FRACTIONS)])],
            "equilibrium": [_equilibrium_instance(rng, n, planted=k % 2 == 0)],
        })
    return family


def certify_sweep(seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    family = sweep_family()
    return {"variants": [_rotated(rng, family, out_dir, f"v{v}_")
                         for v in range(SWEEP_VARIANTS)]}


def _rotated(rng, family, out_dir, prefix):
    """Write one coordinate change of the whole family; return its entries."""
    systems = []
    for i, fam in enumerate(family):
        n = fam["n"]
        n_y, n_g = _sweep_dims(n)
        Q, R, S = _haar(rng, n), _haar(rng, n_y), _haar(rng, n_g)
        entry = {"n": n}

        d = fam["design"]
        doc = _config(Q @ d["A"] @ Q.T, R @ d["C"] @ Q.T, Q @ d["D"] @ S.T, 0,
                      {"gamma": 1.0})
        entry["design"] = {"file": f"{prefix}sys{i}_design.json", "margin": d["margin"]}
        _write(os.path.join(out_dir, entry["design"]["file"]), doc)

        entry["certify"] = []
        for j, c in enumerate(fam["certify"]):
            gamma = c["frac"] * c["gamma_star"]
            obs = {"G": Q @ c["G"] @ Q.T, "J": Q @ c["J"] @ R.T, "E": Q @ c["E"] @ R.T,
                   "N": np.zeros((n, n_y)), "theta": np.eye(n_y), "alpha": 1.0}
            doc = _config(Q @ c["A"] @ Q.T, R @ c["C"] @ Q.T, Q @ c["D"] @ S.T, 0,
                          {"gamma": gamma}, obs)
            item = {"file": f"{prefix}sys{i}_certify{j}.json", "frac": c["frac"],
                    "gamma_star": c["gamma_star"]}
            _write(os.path.join(out_dir, item["file"]), doc)
            entry["certify"].append(item)

        entry["equilibrium"] = []
        for j, e in enumerate(fam["equilibrium"]):
            obs = {"G": Q @ e["G"] @ Q.T, "J": Q @ e["J"] @ R.T, "E": Q @ e["E"] @ R.T,
                   "N": Q @ e["N"] @ R.T, "theta": np.eye(n_y), "alpha": 1.0}
            doc = _config(Q @ e["A"] @ Q.T, R @ e["C"] @ Q.T, Q @ e["D"] @ S.T, 0,
                          {"gamma": 1.0}, obs)
            planted = None if e["planted"] is None else (Q @ e["planted"]).tolist()
            item = {"file": f"{prefix}sys{i}_equilibrium{j}.json", "planted": planted}
            _write(os.path.join(out_dir, item["file"]), doc)
            entry["equilibrium"].append(item)
        systems.append(entry)
    return systems


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs into ``out_dir``; return its manifest."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "paper-study":
        # the paper's own example is built into the program; the seed only
        # names the output directory
        manifest = {"out": f"study-{seed}"}
    elif workload == "delayed-ensemble":
        manifest = delayed_ensemble(seed, out_dir)
    elif workload == "certify-sweep":
        manifest = certify_sweep(seed, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed)
    _write(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
