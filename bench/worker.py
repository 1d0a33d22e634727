"""One round of the benchmarked pipeline, in a fresh process.

Usage: python3 bench/worker.py JOB.json

The job file names the hierbpr source directory, the manifest, the output
directory, the rank-dim queries, how often to repeat the read side (both
evals and the query set) and whether to trace every layer. Each CLI
invocation goes through ``hierbpr.cli.main``, the function the ``hierbpr``
console script calls, so interpreter start-up is not timed. The result,
written to the job's ``result`` path, holds per-operation exit codes and
wall times, the process's peak RSS, and the per-layer span metrics when
tracing.
"""

from __future__ import annotations

import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own peak RSS, the address space's ``VmHWM``.

    ``ru_maxrss`` is no substitute: it keeps the parent's high-water mark
    across fork and exec, and the parent has just generated the corpus.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from hierbpr import cli
    from tracer import Tracer, install
    from workloads import COLD_THRESHOLD, TOP

    traced = bool(job["trace"])
    tracer = Tracer()
    install(tracer, full=traced)
    out_dir = Path(job["out_dir"])
    ckpt = str(out_dir / "model.ckpt")
    ops = []

    def invoke(kind: str, key: str, argv: list[str]) -> None:
        call = tracer.wrap("cli." + kind, cli.main) if traced else cli.main
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = call(argv)
            except SystemExit as exc:        # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:                # a fault the CLI did not map
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - started
        ops.append({"kind": kind, "key": key, "argv": argv, "exit": code,
                    "stderr": err.getvalue()[-4000:], "seconds": seconds})

    invoke("run", "run", ["run", "--manifest", job["manifest"],
                          "--out-dir", str(out_dir)])
    # The read side is repeated: one eval or rank-dim call takes well
    # under a second, so its figure is the median of several calls.
    for _ in range(job["read_reps"]):
        for setting in ("warm", "cold"):
            invoke("eval", f"eval_{setting}",
                   ["eval", "--model", ckpt, "--feedback", job["feedback"],
                    "--setting", setting,
                    "--cold-threshold", str(COLD_THRESHOLD),
                    "--out", str(out_dir / f"eval_{setting}.json")])
        for k, (dim, category) in enumerate(job["queries"]):
            argv = ["rank-dim", "--model", ckpt, "--dim", str(dim),
                    "--top", str(TOP),
                    "--out", str(out_dir / f"rank_{k}.tsv")]
            if category is not None:
                argv += ["--category", category]
            invoke("rank_dim", f"rank_{k}", argv)

    train = tracer.bounds_ns("training.train")
    result = {
        "ops": ops,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
        "train_s": tracer.total_s("training.train"),
        "validation_s": tracer.total_s("evaluation.validation"),
        # Training time up to the end of each epoch's validation.
        "validation_ends_s": [
            (end - train[0][0]) * 1e-9
            for _, end in tracer.bounds_ns("evaluation.validation")],
    }
    if traced:
        import numpy as np
        result["layers"] = tracer.span_metrics()
        np.save(out_dir / "triples.npy",
                np.asarray(tracer.kept["training.sample"], dtype=np.int64)
                .reshape(-1, 3))
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
