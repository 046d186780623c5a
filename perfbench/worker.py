"""Run one workload in this process and print its raw results as JSON.

Started by run.py with `src` on PYTHONPATH; not meant to be run by hand.
The process imports sfcalc, builds the workload (set-up), then runs
passes over the workload's request set, one request at a time, until
the time is used up.  Each request is timed alone and checked after its
timer stops.  With --trace, passes alternate between untraced and
traced, so the tracing overhead is measured in the same process.

The host this was written on, a 2-CPU shared VM, runs the same code up
to twice as slowly in phases that last from under a second to minutes,
and a whole run can fall into one.  So during untraced passes a timer signal
runs a fixed calibration chunk every CAL_EVERY_S, in the middle of a
request too.  A request's time leaves out the chunks that ran inside
it, and the end-to-end times are scaled by how fast the host ran the
chunks around it (see calibration_chunk and HostSpeed).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7  # at least; one more is taken after every pass
perf_counter = time.perf_counter

CAL_EVERY_S = 0.01  # wall time from one calibration chunk to the next
CAL_AROUND_S = 0.05  # chunks this close to a request also set its speed
CAL_REF_S = 4e-4  # the chunk time that scaled times are expressed at


def _cal_tree(depth: int, i: int):
    return i & 7 if depth == 0 else (_cal_tree(depth - 1, 2 * i), _cal_tree(depth - 1, 2 * i + 1))


CAL_TREE = _cal_tree(10, 1)  # 1,023 pairs over 1,024 small-int leaves


def _cal_size(t) -> int:
    return 1 if t.__class__ is int else _cal_size(t[0]) + _cal_size(t[1])


def _cal_render(t) -> str:
    return "SKF"[t % 3] if t.__class__ is int else "(" + _cal_render(t[0]) + _cal_render(t[1]) + ")"


def calibration_chunk() -> None:
    """A fixed piece of pure-Python work shaped like sfcalc's: recursive
    calls over a tree of pairs, then rendering it as text.  It calls no
    sfcalc code, so a change to sfcalc cannot change it, and it
    allocates only ints and strings, which the garbage collector does
    not track, so sfcalc's heap cannot change its cost either.  About
    0.4 ms on the quiet 2-CPU host."""
    _cal_size(CAL_TREE)
    _cal_render(CAL_TREE)


class HostSpeed:
    """How fast the host runs calibration_chunk, sampled through a run.

    While started, a SIGALRM timer runs the chunk CAL_EVERY_S after the
    last one ended, so samples are taken in the middle of long requests
    too, and records when each ran.  The timer is re-armed by the
    handler, so a slow chunk can never be interrupted by the next."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.running = False

    def _sample(self, signum, frame) -> None:
        if not self.running:  # delivered just before stop()
            return
        t0 = perf_counter()
        try:
            calibration_chunk()
        except RecursionError:  # interrupted a request near the limit
            pass
        else:
            self.starts.append(t0)
            self.ends.append(perf_counter())
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self.running = True
        self._sample(signal.SIGALRM, None)

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def chunk_times(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def inside(self, t0: float, t1: float) -> float:
        """Time spent in the chunks that ran between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scale(self, t0: float, t1: float) -> float:
        """The factor that turns the time of a request that ran from t0
        to t1 into scaled time: CAL_REF_S over the mean time of the
        chunks that ran from CAL_AROUND_S before it to CAL_AROUND_S
        after it, less their fastest and slowest tenth.

        A mean, because the host switches between its fast and slow
        phases within seconds, and a long request is slowed by the
        average over its span; a median picks one phase.  Trimmed, so
        that one chunk held up for a few ms does not move the factor of
        every request near it.  start() takes a chunk before the first
        request of a pass, so there is always one before it."""
        lo = bisect.bisect_left(self.starts, t0 - CAL_AROUND_S)
        hi = bisect.bisect_right(self.starts, t1 + CAL_AROUND_S)
        if lo == hi:
            lo -= 1
        times = sorted(self.ends[i] - self.starts[i] for i in range(lo, hi))
        cut = len(times) // 10
        return CAL_REF_S / statistics.fmean(times[cut: len(times) - cut])


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def setup_sample(args: argparse.Namespace) -> tuple[float, float]:
    """Set-up time, scaled and raw, of a fresh process that only sets up."""
    argv = [sys.executable, __file__, "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
    sample = json.loads(proc.stdout)
    return sample["setup_s"], sample["raw_setup_s"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true",
                        help="one pass over every input any seed can draw; "
                             "print each request's record digest")
    args = parser.parse_args(argv)

    pins_file = HERE / "pins.json"
    pins = {}
    if not (args.pin or args.smoke or args.setup_only):
        pins = json.loads(pins_file.read_text())[args.workload]

    # Set-up is timed like a request, in scaled time, except in a traced
    # run, where the chunks would land in the layers' self times.
    host = HostSpeed()
    start = perf_counter()
    if not args.trace:
        host.start()
    import workloads  # imports sfcalc

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed, args.smoke, pins, universe=args.pin)
    end = perf_counter()
    raw_setup_s = setup_s = end - start
    if not args.trace:
        host.stop()
        raw_setup_s -= host.inside(start, end)
        setup_s = raw_setup_s * host.scale(start, end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    setup_layers = tracer.take_pass() if tracer else None

    # Set-up samples are spread over the run, between passes, so that
    # they see the same host conditions as the passes.
    sample_setup = not (args.pin or args.trace)
    setups = [(setup_s, raw_setup_s)] + [setup_sample(args) for _ in range(2 if sample_setup else 0)]
    # Untraced requests as (index, start, end, own time), flat in an
    # array, so the harness adds no object per request to the heap the
    # garbage collector walks.
    samples = array("d")
    index = {id(req): i for i, req in enumerate(wl.requests)}
    walls: list[float] = []
    traced_walls: list[float] = []
    layer_passes: list[tuple[dict, dict]] = []
    spans: list = []
    records: dict[str, str] = {}
    failures: list[str] = []
    attempted = failed = 0
    run_start = perf_counter()
    pass_index = 0
    while True:
        pass_start = perf_counter()
        traced = tracer is not None and pass_index % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        wall = 0.0
        if not traced:
            host.start()
        for req in wl.order(pass_index):
            attempted += 1
            out, problems = None, []
            if traced:
                tracer.suspended = False
                frame = tracer.begin()
            t0 = perf_counter()
            try:
                out = req.run()
            except Exception as exc:  # a failed request is counted, not fatal
                problems = [f"{req.key}: raised {exc!r}"]
            t1 = perf_counter()
            if traced:
                tracer.end(frame, "request")
                tracer.suspended = True  # the checks below call sfcalc too
                wall += t1 - t0
            else:
                own = t1 - t0 - host.inside(t0, t1)
                samples.extend((index[id(req)], t0, t1, own))
                wall += own
            if out is not None:
                try:
                    record, problems = req.check(out)
                except Exception as exc:
                    problems = [f"{req.key}: check raised {exc!r}"]
                else:
                    pin = workloads.digest(record)
                    if args.pin:
                        records[req.key] = pin
                    elif not args.smoke and wl.pin_of(req.key) != pin:
                        problems.append(f"{req.key}: differs from its pin: {record}")
            del out
            if problems:
                failed += 1
                failures.extend(problems)
        if not traced:
            host.stop()
        failures.extend(wl.end_pass())
        if traced:
            traced_walls.append(wall)
            self_s, counts, pass_spans = tracer.take_pass()
            layer_passes.append((self_s, counts))
            if not spans:
                spans = pass_spans
        else:
            walls.append(wall)
        pass_index += 1
        if sample_setup:
            setups.append(setup_sample(args))
        now = perf_counter()
        enough = walls and (traced_walls or tracer is None)
        # Stop unless another pass as long as this one fits in the time left.
        if args.pin or (enough and now - run_start + (now - pass_start) > args.seconds):
            break
    if tracer is not None:
        tracer.uninstall()
    while sample_setup and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))

    # A request's latency is its median over the untraced passes: wall_s
    # is their sum, and the median and the tail are taken across the
    # request set.  The scaled times give the metrics; the raw ones are
    # reported beside them.
    scaled: dict[float, list[float]] = {}
    raw: dict[float, list[float]] = {}
    for i in range(0, len(samples), 4):
        req, t0, t1, own = samples[i: i + 4]
        scaled.setdefault(req, []).append(own * host.scale(t0, t1))
        raw.setdefault(req, []).append(own)
    latencies = sorted(statistics.median(v) for v in scaled.values())
    raw_latencies = sorted(statistics.median(v) for v in raw.values())
    chunk_times = host.chunk_times()
    tail = wl.tail_percentile
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "setup_samples_s": [s for s, _ in setups],
        "setup_s": statistics.median(s for s, _ in setups),
        "raw_setup_s": statistics.median(r for _, r in setups),
        "passes": len(walls),
        "requests_per_pass": len(wl.requests),
        "wall_s": sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "tail_percentile": tail,
        "latency_tail_s": percentile(latencies, tail),
        "calibration_chunks": len(chunk_times),
        "calibration_chunk_median_s": statistics.median(chunk_times),
        "calibration_reference_s": CAL_REF_S,
        # The same estimates from the unscaled times, for comparison.
        "pass_wall_s": walls,
        "raw_wall_s": sum(raw_latencies),
        "raw_latency_p50_s": statistics.median(raw_latencies),
        "raw_latency_tail_s": percentile(raw_latencies, tail),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counts": wl.counts(),
        "notes": wl.notes,
    }
    if args.pin:
        result["records"] = records
    if tracer is not None:
        result["traced_pass_wall_s"] = traced_walls
        result["layers"] = layer_summary(setup_layers, layer_passes)
        result["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1
        )
        write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv", spans)
    print(json.dumps(result))
    return 0


def layer_summary(setup: tuple[dict, dict, list], passes: list[tuple[dict, dict]]) -> dict:
    """Per-layer self times and counts of the set-up plus one pass (the
    median over traced passes)."""
    out: dict[str, float] = {}
    for index in (0, 1):
        keys = set(setup[index]).union(*(p[index] for p in passes))
        for key in keys:
            median = statistics.median_low(p[index].get(key, 0) for p in passes)
            value = setup[index].get(key, 0) + median
            out[key + ".self_s" if index == 0 else key] = value
    return out


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart\tend\tparent\n")
        for i, (name, s, e, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{s:.9f}\t{e:.9f}\t{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
