"""The sfcalc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sk-probe --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one row each
    python3 perfbench/run.py --smoke                 # toy sizes, schema check
    python3 perfbench/run.py --pin                   # rewrite pins.json

Each workload runs in its own process (worker.py) as a closed loop
with one client: one request in flight, single-threaded.  For a single
workload the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is 0 only when every output matched its reference and
its pin and the result passed its schema check; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sf-quote", "sk-probe", "model-checks", "trace-steps")
RUN_TIMEOUT_S = 170  # one workload, set-up samples included

RATES = {  # rate -> (work count, self time)
    "reduction.machine.steps_per_s": ("reduction.machine.steps", "reduction.machine.self_s"),
    "reduction.stepper.steps_per_s": ("reduction.stepper.steps", "reduction.stepper.self_s"),
    "reduction.applicative.steps_per_s": (
        "reduction.applicative.steps", "reduction.applicative.self_s"),
    "models.eval_rec.evals_per_s": ("models.eval_rec.evals", "models.eval_rec.self_s"),
    "turing.run_machine.steps_per_s": ("turing.run_machine.steps", "turing.run_machine.self_s"),
}

# Limits of the machines this benchmark was written on; printed with
# every detailed result so that numbers are read with them in mind.
LIMITS = {
    "timing": "time.perf_counter and in-process counts only",
    "hardware_counters": "none",
    "app_allocations_per_step": "not counted: sfcalc has no allocation counter yet",
    "host": "2-CPU shared VM; single runs of the same code spread by up to ~±20%",
}


class BenchError(Exception):
    pass


def worker(root: Path, args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # A session of its own, so that a timeout also stops the set-up
    # processes the worker starts.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """The worker's raw result for one measured run."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        args.append("--smoke")
    if trace:
        args.append("--trace")
    return worker(root, args, RUN_TIMEOUT_S)


def load_units(root: Path, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metrics_of(raw: dict, trace: bool, units: dict[str, str]) -> dict:
    if not trace:
        values = {
            "setup_s": raw["setup_s"],
            "wall_s": raw["wall_s"],
            "latency_p50_ms": raw["latency_p50_s"] * 1000,
            "latency_tail_ms": raw["latency_tail_s"] * 1000,
            "peak_rss_mib": raw["peak_rss_mib"],
        }
        if set(values) != set(units):
            raise BenchError(f"BENCHMARK.json names {sorted(units)}, "
                             f"run.py measures {sorted(values)}")
    else:
        layers = raw["layers"]
        values = {}
        for name in units:
            if name in RATES:
                work, busy = RATES[name]
                t = layers.get(busy, 0.0)
                values[name] = layers.get(work, 0) / t if t > 0 else 0.0
            elif name == "trace.overhead_frac":
                values[name] = raw["trace.overhead_frac"]
            else:
                values[name] = layers.get(name, 0)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def schema_problems(result: dict, trace: bool, expected: dict[str, str]) -> list[str]:
    """Checks the final JSON line against the benchmark's contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            problems.append(f"metric {name}: {m}")
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"metric {name}: value is not a number")
        elif not trace and not m["value"] > 0:
            problems.append(f"metric {name}: {m['value']} is not positive")
    return problems


def final_line(raw: dict, trace: bool, units: dict[str, str]) -> dict:
    return {
        "correct": raw["failed"] == 0 and not raw["failures"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics_of(raw, trace, units),
    }


def row(raw: dict, trace: bool, metrics: dict) -> str:
    """One human-readable line: every metric with its unit."""
    fields = [f"{n}={m['value']:.6g} {m['unit']}" for n, m in metrics.items()
              if m["value"] or not trace]
    if not trace:
        fields.insert(4, f"(p{raw['tail_percentile']:g})")
        fields.append(f"failed_frac={raw['failed'] / raw['attempted']:.6g} ratio")
    return f"{raw['workload']:<12} seed={raw['seed']} passes={raw['passes']}  " + "  ".join(fields)


def detail(raw: dict) -> dict:
    out = {k: v for k, v in raw.items() if k not in ("records", "layers")}
    out["limits"] = LIMITS
    return out


def write_pins(root: Path) -> None:
    pins = {}
    for name in WORKLOADS:
        raw = worker(root, ["--workload", name, "--seed", "0", "--pin"], 3600)
        if raw["failed"] or raw["failures"]:
            raise BenchError(f"{name}: reference checks failed: {raw['failures']}")
        records = raw["records"]
        if name == "sk-probe":  # grouped by probe: one digest per slot
            grouped: dict[str, dict[int, str]] = {}
            for key, pin in records.items():
                probe, _, slot = key.rpartition("#")
                grouped.setdefault(probe, {})[int(slot)] = pin
            records = {p: "".join(s[i] for i in range(len(s))) for p, s in grouped.items()}
        pins[name] = dict(sorted(records.items()))
        print(f"{name}: {len(records)} pins", file=sys.stderr)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sfcalc benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy sizes, with a schema check")
    parser.add_argument("--pin", action="store_true",
                        help="record every request's outcome as pins.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sfcalc" / "__init__.py").is_file():
        print("error: run from the root of an sfcalc checkout (no src/sfcalc)",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.pin:
            write_pins(root)
            return 0
        names = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
        seconds = 0.5 if args.smoke else args.seconds
        units = load_units(root, trace)
        ok = True
        for name in names:
            raw = run_workload(root, name, args.seed, seconds, trace, args.smoke)
            result = final_line(raw, trace, units)
            problems = schema_problems(result, trace, units)
            print(json.dumps(detail(raw)))
            for failure in raw["failures"]:
                print(f"  mismatch: {failure}")
            for problem in problems:
                print(f"  schema: {problem}")
            print(row(raw, trace, result["metrics"]))
            ok = ok and result["correct"] and not problems
        if len(names) == 1:
            print(json.dumps(result))
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
