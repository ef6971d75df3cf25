"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fit-lowd --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
and every file the run writes goes under ``.perfbench_work/``. The last
line of standard output is the result, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, times and rates in reference-speed units (see
``speed.py``); with ``--trace 1`` the workload runs once untraced
and once traced, and the metrics are the per-layer metrics of the
traced run plus ``overhead.<metric>`` (traced minus untraced) for every
end-to-end metric. The line before it is a JSON record of the machine,
the seed, the per-phase attempted/failed counts and the raw samples.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
sys.pycache_prefix = str(WORK / "pycache")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the paths above)
from speed import NoIdle, SpeedProbe  # noqa: E402


def declared(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def as_metrics(values: dict, kind: str) -> dict:
    units = declared(kind)
    if set(values) != set(units):
        raise RuntimeError(
            f"measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def blas_threads() -> str:
    """The OpenBLAS thread count numpy uses, when it can be read."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        try:
            func = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        func.restype = ctypes.c_int
        return str(func())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads()}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                PYTHONPYCACHEPREFIX=str(WORK / "pycache"))


def run_once(args, traced: bool) -> workloads.Result:
    work = WORK / f"{args.workload}-{os.getpid()}-{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with NoIdle(), SpeedProbe(work / "speed.txt") as speed:
            ctx = workloads.Ctx(work=work, env=child_env(), seed=args.seed,
                                seconds=args.seconds, speed=speed, traced=traced)
            return workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print("error: run from the root of a checkout (src/repro or "
              "BENCHMARK.json is missing)", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the workloads' cleanup so no fit or
    # server process outlives the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    # Compile the program's modules once, outside any timed region, so
    # every timed process start finds warm bytecode.
    subprocess.run([sys.executable, "-c", "import repro.cli, repro.serve, repro.stream"],
                   env=child_env(), check=True, timeout=120)

    plain = run_once(args, traced=False)
    results = [plain]
    if args.trace:
        traced = run_once(args, traced=True)
        results.append(traced)
        values = dict(traced.layers)
        for name, value in plain.metrics.items():
            values[f"overhead.{name}"] = traced.metrics[name] - value
        metrics = as_metrics(values, "per_layer")
    else:
        metrics = as_metrics(plain.metrics, "end_to_end")

    correct = all(r.correct for r in results)
    attempted = sum(a for r in results for a, _ in r.phases.values())
    failed = sum(f for r in results for _, f in r.phases.values())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "runs": [{"traced": i == 1, "phases": r.phases, "checks": r.checks,
                        "metrics": r.metrics, **r.info} for i, r in enumerate(results)]}
    print(json.dumps(record), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
