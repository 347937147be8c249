"""The cubicobs benchmark: one command, three seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from ``--seed`` into ``.bench_work/``,
times set-up in fresh interpreters (spawn until ``import cubicobs`` has
finished and the inputs are loaded), then runs the workload in one fresh
worker process as a closed loop (one caller, one operation at a time, no
threads or pools) for ``--seconds``, and checks every output independently.
Time metrics are in reference seconds: wall time scaled by the machine's
speed, from a calibration kernel timed alongside (``calib.py``).
It prints one line per metric, an ``environment`` line, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
separate run with spans recorded around each layer) with ``--trace 1``.
See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-study", "delayed-ensemble", "certify-sweep")
SETUP_SPAWNS = 5  # set-up-only spawns per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s
WORKER_ENV = {
    # one caller, one operation at a time: no BLAS thread pools either
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# (name, unit) of every per-layer metric, in print order
PER_LAYER = (
    ("exprlang.evaluate.calls", "count"),
    ("exprlang.evaluate.self_s", "s"),
    ("exprlang.evaluate.us_per_call", "us"),
    ("exprlang.evaluate.drive_calls", "count"),
    ("exprlang.evaluate.errors", "count"),
    ("exprlang.parse.calls", "count"),
    ("exprlang.parse.s", "s"),
    ("sim.steps", "count"),
    ("sim.simulate.calls", "count"),
    ("sim.simulate.s", "s"),
    ("sim.simulate.self_s", "s"),
    ("sim.simulate.self_us_per_step", "us"),
    ("sim.history.value_at.calls", "count"),
    ("sim.history.value_at.s", "s"),
    ("sim.write_trajectory_csv.s", "s"),
    ("sim.write_trajectory_csv.bytes", "bytes"),
    ("model.load_config.calls", "count"),
    ("model.load_config.s", "s"),
    ("model.validate.calls", "count"),
    ("model.validate.s", "s"),
    ("design.stabilize_L.calls", "count"),
    ("design.stabilize_L.s", "s"),
    ("design.stabilize_L.abscissa_evals", "count"),
    ("design.stabilize_L.found_ratio", "ratio"),
    ("design.compute_E.s", "s"),
    ("design.design_GJ.s", "s"),
    ("cert.search_P.calls", "count"),
    ("cert.search_P.s", "s"),
    ("cert.search_P.lmi_assemblies", "count"),
    ("cert.search_P.found_ratio", "ratio"),
    ("cert.check_equilibrium_uniqueness.calls", "count"),
    ("cert.check_equilibrium_uniqueness.s", "s"),
    ("cert.check_equilibrium_uniqueness.objective_evals", "count"),
    ("cert.check_equilibrium_uniqueness.recall", "ratio"),
    ("cert.verify.s", "s"),
    ("numlin.definiteness_margin.calls", "count"),
    ("numlin.definiteness_margin.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)

# the operations whose median time is op_p50_s
LATENCY_KINDS = {
    "paper-study": ("cli",),
    "delayed-ensemble": ("simulate",),
    "certify-sweep": ("equilibrium-closed", "equilibrium-planted"),
}

# the workload-specific name printed next to a generic metric
ALIASES = {
    "paper-study": {"items_per_s": "sim_steps_per_s"},
    "delayed-ensemble": {"items_per_s": "sim_steps_per_s", "op_p50_s": "sim_op_p50_s"},
    "certify-sweep": {"items_per_s": "systems_per_s"},
}


class BenchError(RuntimeError):
    pass


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


# --- worker processes --------------------------------------------------------

class Worker:
    """A worker process whose set-up time is spawn until its ``ready`` line."""

    def __init__(self, root, deadline, args):
        self.deadline = deadline
        env = dict(os.environ, **WORKER_ENV)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, *args],
            stdout=subprocess.PIPE, cwd=root, env=env)
        try:
            self.rest = self._read_ready()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _remaining(self):
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("worker exceeded the time limit")
        return left

    def _read_ready(self) -> bytes:
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            ready, _, _ = select.select([fd], [], [], self._remaining())
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"worker exited during set-up (code {self.proc.wait()})")
            buf += chunk
        line, _, rest = buf.partition(b"\n")
        if line.strip() != b"ready":
            raise BenchError(f"unexpected worker output {line[:200]!r}")
        return rest

    def finish(self) -> bytes:
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker exceeded the time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return self.rest + out

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# --- metrics -----------------------------------------------------------------

def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _ref_seconds(p) -> list:
    """The operation times of pass ``p`` in reference seconds."""
    return [calib.scale(o["seconds"], p["cal"]) for o in p["ops"]]


def end_to_end(workload, setups, res) -> dict:
    """Times are in reference seconds (``calib.py``).

    ``wall_s`` is the time of a median pass: for each position in a pass,
    the median over passes of that operation's time, summed.  Every pass
    runs the same operations in the same order (on certify-sweep the same
    systems in other coordinates), so a stall inside one operation moves
    one sample of one median, and all passes count towards every position.
    """
    passes = res["passes"]
    ops = [o for p in passes for o in p["ops"]]
    solved = sum(o["status"] == "solved" for o in ops)
    ref = [_ref_seconds(p) for p in passes]
    width = min(len(r) for r in ref)
    wall = sum(_median([r[j] for r in ref]) for j in range(width))
    latency = [t for p, r in zip(passes, ref) for o, t in zip(p["ops"], r)
               if o["kind"] in LATENCY_KINDS[workload]]
    return {
        "setup_s": (_median(setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (_median([p["items"] for p in passes]) / wall, "1/s"),
        "op_p50_s": (_median(latency), "s"),
        "solved_frac": (solved / len(ops), "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def _layer(setup: dict, layer: dict) -> dict:
    spans: dict[str, list] = {}
    for part in (setup, layer):
        for name, vals in part["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
    counts = Counter(setup["counts"]) + Counter(layer["counts"])

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counts["sim.steps"]
    return {
        "exprlang.evaluate.calls": calls("exprlang.evaluate"),
        "exprlang.evaluate.self_s": own("exprlang.evaluate"),
        "exprlang.evaluate.us_per_call": 1e6 * ratio(own("exprlang.evaluate"),
                                                     calls("exprlang.evaluate")),
        "exprlang.evaluate.drive_calls": counts["exprlang.evaluate.drive_calls"],
        "exprlang.evaluate.errors": counts["exprlang.evaluate.errors"],
        "exprlang.parse.calls": calls("exprlang.parse"),
        "exprlang.parse.s": total("exprlang.parse"),
        "sim.steps": steps,
        "sim.simulate.calls": calls("sim.simulate"),
        "sim.simulate.s": total("sim.simulate"),
        "sim.simulate.self_s": own("sim.simulate"),
        "sim.simulate.self_us_per_step": 1e6 * ratio(own("sim.simulate"), steps),
        "sim.history.value_at.calls": calls("sim.history.value_at"),
        "sim.history.value_at.s": total("sim.history.value_at"),
        "sim.write_trajectory_csv.s": total("sim.write_trajectory_csv"),
        "sim.write_trajectory_csv.bytes": counts["sim.write_trajectory_csv.bytes"],
        "model.load_config.calls": calls("model.load_config"),
        "model.load_config.s": total("model.load_config"),
        "model.validate.calls": calls("model.validate"),
        "model.validate.s": total("model.validate"),
        "design.stabilize_L.calls": calls("design.stabilize_L"),
        "design.stabilize_L.s": total("design.stabilize_L"),
        "design.stabilize_L.abscissa_evals": calls("design.spectral_abscissa"),
        "design.stabilize_L.found_ratio": ratio(counts["design.stabilize_L.found"],
                                                calls("design.stabilize_L")),
        "design.compute_E.s": total("design.compute_E"),
        "design.design_GJ.s": total("design.design_GJ"),
        "cert.search_P.calls": calls("cert.search_P"),
        "cert.search_P.s": total("cert.search_P"),
        "cert.search_P.lmi_assemblies": calls("cert.lipschitz_lmi"),
        "cert.search_P.found_ratio": ratio(counts["cert.search_P.found"],
                                           calls("cert.search_P")),
        "cert.check_equilibrium_uniqueness.calls": calls("cert.check_equilibrium_uniqueness"),
        "cert.check_equilibrium_uniqueness.s": total("cert.check_equilibrium_uniqueness"),
        "cert.check_equilibrium_uniqueness.objective_evals":
            counts["cert.check_equilibrium_uniqueness.objective_evals"],
        "cert.verify.s": total("cert.verify"),
        "numlin.definiteness_margin.calls": calls("numlin.definiteness_margin"),
        "numlin.definiteness_margin.s": total("numlin.definiteness_margin"),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": own("cli.main"),
    }


def per_layer(res) -> dict:
    """Times are medians over traced passes; counts and ratios come from the
    first traced pass (plus set-up), so they repeat exactly for a seed."""
    traced = [p for p in res["passes"] if p["traced"]]
    per_pass = []
    for p in traced:
        m = _layer(res["setup_layers"], p["layers"])
        planted = [o for o in p["ops"] if o["kind"] == "equilibrium-planted"]
        m["cert.check_equilibrium_uniqueness.recall"] = (
            sum(o["status"] == "solved" for o in planted) / len(planted) if planted else 0.0)
        per_pass.append(m)
    plain = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    overhead = _median([p["wall_s"] for p in traced]) - _median(plain)
    out = {}
    for name, unit in PER_LAYER:
        if name == "bench.trace_overhead_s":
            value = overhead
        elif unit in ("s", "us"):
            value = _median([m[name] for m in per_pass])
        else:
            value = per_pass[0][name]
        out[name] = (value, unit)
    return out


# --- environment -------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and kind and size:
            caches[f"L{level}" + ("" if kind == "Unified" else kind[0].lower())] = size
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
        # the shared VM the bounds were set on allows neither
        "cpu_pinning": "none: the benchmark host allows no CPU pinning",
        "frequency_control": "none: the benchmark host allows no frequency control",
    }


# --- main --------------------------------------------------------------------

def main() -> int:
    args = _args()
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cubicobs", "__init__.py")):
        print("error: run from the root of a cubicobs checkout (no src/cubicobs here)",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import gen

    # a terminated run still stops its worker and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    worker = None
    try:
        gen.generate(args.workload, args.seed, work)
        worker_args = ["--workload", args.workload, "--inputs", work,
                       "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        setups, raw_setups = [], []
        if not args.trace:
            after = calib.sample()
            for _ in range(SETUP_SPAWNS):
                before = after
                worker = Worker(root, deadline, worker_args + ["--setup-only"])
                inside = float(worker.finish().split()[0])  # the worker's own sample
                after = calib.sample()
                raw_setups.append(worker.setup_s)
                setups.append(calib.scale(worker.setup_s, (before, inside, after)))
        worker = Worker(root, deadline, worker_args)
        res = json.loads(worker.finish().decode().strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    ops = [o for p in res["passes"] for o in p["ops"]]
    failed = [o for o in ops if o["status"] == "failed"]
    unsolved = [o for o in ops if o["status"] == "unsolved"]
    if args.trace:
        metrics = per_layer(res)
    else:
        metrics = end_to_end(args.workload, setups, res)
    traced = "traced" if args.trace else "untraced"
    print(f"cubicobs benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  {traced}  passes={len(res['passes'])}  "
          f"operations={len(ops)}")
    aliases = ALIASES[args.workload]
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<52} {value:>14.6g} {unit}{alias}")
    print(f"  {'failed_frac':<52} {len(failed) / len(ops):>14.6g} ratio"
          f"  ({len(failed)} of {len(ops)} operations)")
    print(f"  {'unsolved_frac':<52} {len(unsolved) / len(ops):>14.6g} ratio"
          f"  (documented give-ups and missed planted answers)")
    walls = " ".join(f"{sum(o['seconds'] for o in p['ops']):.4g}{'t' if p['traced'] else ''}"
                     for p in res["passes"])
    print(f"  pass wall times, measured (s, t = traced): {walls}")
    if not args.trace:
        refs = " ".join(f"{sum(_ref_seconds(p)):.4g}" for p in res["passes"])
        print(f"  pass wall times, reference (s): {refs}")
        print(f"  set-up times, measured (s): {' '.join(f'{t:.4g}' for t in raw_setups)}")
        print(f"  set-up times, reference (s): {' '.join(f'{t:.4g}' for t in setups)}")
    for o in (failed + unsolved)[:8]:
        print(f"  {o['status']}: {o['kind']}: {o['reason']}")
    print("environment " + json.dumps(environment(root), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
