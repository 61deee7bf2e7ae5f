"""Benchmark of the sparse-expand package: one command for every metric.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from the repository root (or any copy of it holding `src/` and
`perfbench/`). Inputs are generated from `--seed` by `gen.py` in a child
process, under `.perfbench_work/`, which is removed at the end. The
package is imported from `src/` of the same checkout and run as shipped:
no patches, `SPARSE_EXPAND_THREADS` and GC settings untouched.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, with every
timing scaled by a machine-speed reference (calibrate.py). `--trace 1`
runs the same work twice with fixed counts, untraced and then traced,
and reports the per-layer metrics. `--tiny` shrinks every input for a
quick smoke run. Human-readable lines (environment, input sizes, output
digests, expected outcomes, metrics with units) come first; the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3


def _import_package():
    """Import sparse_expand from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "sparse_expand" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import sparse_expand

    if Path(sparse_expand.__file__).resolve().parent != (src / "sparse_expand").resolve():
        return None
    return sparse_expand


def generate(directory: Path, seed: int, sizes) -> dict[str, str]:
    """Write the inputs in a child process, so the workload's peak RSS
    excludes the generator."""
    result = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), str(directory), "--seed", str(seed),
         "--sizes", json.dumps(sizes.__dict__)],
        check=True, capture_output=True, text=True, timeout=600,
    )
    return json.loads(result.stdout)


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    args = parser.parse_args(argv)

    package = _import_package()
    if package is None:
        print(f"perfbench: no sparse_expand package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import bench as b
    import gen
    import layers
    from calibrate import Reference
    from tracer import Tracer

    workload = b.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(b.WORKLOADS)}",
              file=sys.stderr)
        return 2
    sizes, pipe_sizes = workload.main, b.PIPE_SIZES
    if args.tiny:
        sizes, pipe_sizes = b.tiny(sizes), b.tiny(pipe_sizes)

    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paths = generate(work / "main", args.seed, sizes)
        pipe_paths = generate(work / "pipe", args.seed + 1, pipe_sizes)
        env = b.environment(args.seed, workload, sizes, pipe_sizes)
        print("env " + json.dumps(env, sort_keys=True))
        print("input_bytes " + json.dumps(gen.input_bytes(paths), sort_keys=True))

        if args.trace:
            untraced = b.Bench(workload, paths, pipe_paths, work, args.seed)
            start = perf_counter()
            _run(untraced, None, counted=True)
            untraced_wall = perf_counter() - start
            untraced.verify()
            outcomes = untraced.outcomes
            del untraced

            bench = b.Bench(workload, paths, pipe_paths, work, args.seed)
            tracer = Tracer()
            tracer.install(package)
            try:
                start = perf_counter()
                _run(bench, tracer, counted=True)
                traced_wall = perf_counter() - start
            finally:
                tracer.uninstall()
            bench.verify()
            metrics = layers.compute(tracer, bench, traced_wall, untraced_wall)
            for name, (calls, total, own) in tracer.summary().items():
                print(f"span {name} calls={calls} total_s={total:.6f} self_s={own:.6f}")
            outcomes.attempted += bench.outcomes.attempted
            outcomes.failed += bench.outcomes.failed
            outcomes.problems += bench.outcomes.problems
        else:
            bench = b.Bench(workload, paths, pipe_paths, work, args.seed, Reference())
            _run(bench, None, counted=False, seconds=args.seconds)
            peak = bench.peak_rss_mb()
            bench.verify()
            metrics = bench.end_to_end(peak)
            outcomes = bench.outcomes
            for name, (p, n) in bench.tails.items():
                print(f"tail {name} p{p:g} of {n} samples")
            factors = bench.factors
            print(f"reference factor median {statistics.median(factors):.4f} "
                  f"range {min(factors):.4f}-{max(factors):.4f}")
            for name, values in bench.raw.items():
                print(f"unscaled median {name} {statistics.median(values):.6g} s over {len(values)}")

        for name, digest in bench.digests.items():
            print(f"sha256 {name} {digest.hexdigest()}")
        print("expected_outcomes " + json.dumps(outcomes.expected, sort_keys=True))
        for problem in outcomes.problems:
            print(f"FAILED {problem}")
        print(f"error_rate {outcomes.failed / max(1, outcomes.attempted):.6g} "
              f"({outcomes.failed}/{outcomes.attempted})")
        _print_metrics(metrics)
        print(json.dumps({
            "correct": outcomes.failed == 0,
            "attempted": outcomes.attempted,
            "failed": outcomes.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


def _run(bench, tracer, counted: bool, seconds: float | None = None) -> None:
    """Set-up, warm-up and the measured rounds; traced runs
    wrap each in a benchmark span so the remainder can be accounted."""
    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with span("bench.run"):
        with span("bench.setup"):
            bench.setup(1 if counted else SETUP_REPS)
        with span("bench.warm_up"):
            bench.warm_up()
        with span("bench.measure"):
            bench.measure(None if counted else seconds)


if __name__ == "__main__":
    sys.exit(main())
