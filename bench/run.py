"""hierbpr benchmark: the user pipeline on a seeded synthetic corpus.

Usage (from the root of a checkout):

    python3 bench/run.py --workload wide|catalog --seed N \
        --seconds S --trace 0|1

Set-up generates the workload's corpus with ``synthdata.generate`` and
writes its manifest (repeated, median reported as ``setup_s``). Then whole
rounds run, at least two, while the next is expected to end within
``--seconds``. A round is one fresh process executing ``hierbpr run``, then
the workload's read side a fixed number of times: ``hierbpr eval`` warm and
cold from the checkpoint and the workload's fixed ``rank-dim`` queries. The
first round is checked against an independent oracle, every later round
must reproduce its outputs byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over rounds); with ``--trace 1`` rounds alternate untraced and
traced and it reports the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import COLD_THRESHOLD, LEARNING_RATE, WORKLOADS, derive_seeds

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 3
MIN_ROUNDS = 2
# Passes over the read side (both evals and the query set) per untraced
# round: its calls are short, so each figure is a median over passes.
READ_REPS = 2
ROUND_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# BLAS threads are pinned to one: the hot paths are single-vector kernels,
# and one thread keeps a shared two-core machine's figures steady.
BLAS_THREADS = "1"


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def median_sum(ops: list[dict], kind: str) -> float:
    """Sum over one pass of ``kind`` operations of each one's median time."""
    seconds: dict[str, list[float]] = {}
    for op in ops:
        if op["kind"] == kind:
            seconds.setdefault(op["key"], []).append(op["seconds"])
    return sum(statistics.median(v) for v in seconds.values())


def is_failure(op: dict) -> bool:
    """Non-zero exit, or the CLI's one-line JSON error on stderr."""
    return op["exit"] != 0 or op["stderr"].lstrip().startswith('{"error"')


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path):
        self.w = workload
        self.seeds = derive_seeds(seed)
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = work
        self.queries = workload.queries()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.oracle = None
        self.ref_dir: Path | None = None

    # ------------------------------------------------------------ set-up

    def setup(self) -> tuple[list[float], list[float]]:
        from hierbpr.synthdata import SynthConfig, generate
        cfg = SynthConfig(rng_seed=self.seeds["synth"], **self.w.synth)
        data = self.work / "data"
        setup_s, generate_s = [], []
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            paths = generate(cfg, data)
            generated = time.perf_counter()
            self.inputs = {k: paths[k] for k in
                           ("feedback", "features", "hierarchy", "item_leaves")}
            manifest = {
                "inputs": self.inputs,
                "model": self.w.model,
                "train": {"learning_rate": LEARNING_RATE,
                          "iterations": self.w.epochs},
                "seeds": {k: self.seeds[k] for k in ("split", "init", "sample")},
                "cold_threshold": COLD_THRESHOLD,
                "feature_norm": self.w.feature_norm,
                "out_dir": str(self.work / "out"),
            }
            self.manifest = self.work / "manifest.json"
            self.manifest.write_text(json.dumps(manifest, indent=2),
                                     encoding="utf-8")
            setup_s.append(time.perf_counter() - started)
            generate_s.append(generated - started)
        return setup_s, generate_s

    # ------------------------------------------------------------ rounds

    def run_round(self, k: int, traced: bool) -> dict:
        out_dir = self.work / f"round{k}"
        out_dir.mkdir()
        job = {
            "src": str(self.root / "src"),
            "manifest": str(self.manifest),
            "feedback": self.inputs["feedback"],
            "out_dir": str(out_dir),
            "queries": self.queries,
            "read_reps": 1 if traced else READ_REPS,
            "trace": traced,
            "result": str(self.work / f"result{k}.json"),
        }
        job_path = self.work / f"job{k}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            capture_output=True, text=True,
            timeout=ROUND_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n"
                             f"{proc.stderr[-4000:]}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        result["out_dir"] = out_dir
        return result

    def account(self, result: dict) -> dict | None:
        """Count operations and check outputs; per-round figures or None."""
        from checks import (check_reference, check_traced, compare_round,
                            epochs_to_target, read_metrics_tsv)
        ops = result["ops"]
        self.attempted += len(ops)
        failures = [op for op in ops if is_failure(op)]
        out_dir = result["out_dir"]
        if failures:
            self.failed += len(failures)
            for op in failures[:3]:
                print(f"bench: failed: hierbpr {' '.join(op['argv'])}\n"
                      f"{op['stderr'].strip()}", file=sys.stderr)
            return None
        val = read_metrics_tsv(out_dir / "metrics.tsv")
        reached = epochs_to_target(val, self.w.target_auc)
        if reached is None:
            # The training run is an operation that missed its target.
            self.failed += 1
            print(f"bench: validation AUC never reached "
                  f"{self.w.target_auc} (best {max(val):.4f})", file=sys.stderr)
        if self.ref_dir is None:
            problems, self.oracle = check_reference(
                self.w, self.inputs, out_dir, self.queries)
            self.ref_dir = out_dir
        else:
            problems = compare_round(self.ref_dir, out_dir, len(self.queries))
        if len(result["validation_ends_s"]) != len(val):
            problems.append(f"{len(result['validation_ends_s'])} validation "
                            f"calls timed for {len(val)} epochs")
        if "layers" in result:
            problems += check_traced(self.oracle, out_dir, result["layers"],
                                     len(val))
        self.problems += problems
        report = json.loads((out_dir / "report.json").read_text(
            encoding="utf-8"))
        sgd_s = result["train_s"] - result["validation_s"]
        figures = {
            "run_s": ops[0]["seconds"],
            # From the start of training to the end of the validation that
            # first reached the target, on the benchmark's own clock.
            "time_to_target_s": (result["validation_ends_s"][reached - 1]
                                 if reached is not None else None),
            "train_triples_per_s": len(val) * self.oracle.n_train / sgd_s,
            "eval_s": median_sum(ops, "eval"),
            "rank_dim_s": median_sum(ops, "rank_dim"),
            "warm_auc": report["warm"]["auc"],
            "cold_auc": report["cold"]["auc"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        if "layers" in result:
            figures["layers"] = dict(result["layers"])
            figures["layers"]["training.epochs_to_target"] = reached
            figures["layers"]["checkpoint.bytes"] = (
                out_dir / "model.ckpt").stat().st_size
        if out_dir != self.ref_dir:
            shutil.rmtree(out_dir)
        return figures

    def measure(self) -> dict:
        setup_s, generate_s = self.setup()
        plain, traced = [], []
        spent = 0.0                 # seconds inside rounds, checks excluded
        k = 0
        # Whole rounds only; with tracing, whole (untraced, traced) pairs.
        # Another round (pair) starts only while it is expected to end
        # within --seconds, judged by the mean round so far.
        step = 2 if self.trace else 1
        while not (k >= MIN_ROUNDS and k % step == 0
                   and spent * (k + step) / k > self.seconds):
            is_traced = self.trace and k % 2 == 1
            started = time.perf_counter()
            result = self.run_round(k, is_traced)
            spent += time.perf_counter() - started
            figures = self.account(result)
            if figures is not None:
                shown = {n: round(v, 4) for n, v in figures.items()
                         if isinstance(v, float)}
                print(f"bench: round {k}{' traced' if is_traced else ''}: "
                      f"{json.dumps(shown)}", file=sys.stderr)
                (traced if is_traced else plain).append(figures)
            k += 1
        if not plain or (self.trace and not traced):
            raise BenchError("no round completed the pipeline")
        if not self.trace:
            metrics = {"setup_s": statistics.median(setup_s)}
            for name in plain[0]:
                values = [f[name] for f in plain if f[name] is not None]
                if not values:
                    raise BenchError(f"no round measured {name}")
                metrics[name] = statistics.median(values)
            return metrics
        metrics = {}
        for name in traced[0]["layers"]:
            values = [f["layers"][name] for f in traced
                      if f["layers"][name] is not None]
            if not values:
                raise BenchError(f"no traced round measured {name}")
            metrics[name] = statistics.median(values)
        metrics["synthdata.generate_s"] = statistics.median(generate_s)
        metrics["trace.overhead_s"] = (
            statistics.median(f["run_s"] for f in traced)
            - statistics.median(f["run_s"] for f in plain))
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "hierbpr" / "cli.py").is_file() or not spec_path.is_file():
        print("bench: run from the root of a hierbpr checkout "
              "(needs src/hierbpr and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import hierbpr
    if not Path(hierbpr.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: imported hierbpr from {hierbpr.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), root, work)
    try:
        metrics = bench.measure()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        print(f"bench: measured {sorted(set(metrics) ^ set(units))} "
              "differently from BENCHMARK.json", file=sys.stderr)
        return 1
    for problem in bench.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
