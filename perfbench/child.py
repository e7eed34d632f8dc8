"""One `rankinfer` CLI invocation in a fresh interpreter, with its cost.

Usage (from the repository root, with PYTHONPATH=src):

    python perfbench/child.py RECORD.json TRACE -- CLI-ARGS...

Times the import of `rankinfer.cli.main` and the `main()` call separately
(stdout is flushed inside the timed call), then writes the exit code, both
times, the peak RSS and, when TRACE is 1, the layer spans to RECORD.json.
Untraced children then time a fixed calibration task (`calibrate`) in the
same process, after the peak RSS is read; the runner uses it to factor the
host's current speed out of the main() times.
"""
import json
import resource
import sys
import time


def _calibration_task() -> float:
    import math

    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    np.sort(rng.normal(size=500_000))
    square = rng.normal(size=(250, 250))
    square @ square
    np.linalg.qr(rng.normal(size=(20_000, 20)))
    for n in range(500, 800, 30):
        sum(math.comb(n, i) for i in range(n // 2, n + 1)) / (1 << n)
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds taken by fixed work that calls no rankinfer code: a numpy
    sort, matrix product and tall QR, then big-integer binomial sums.
    One untimed round first, so the program's leftovers do not matter."""
    _calibration_task()
    return _calibration_task()


def run() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    from rankinfer.cli.main import main
    t1 = time.perf_counter()
    tracer = None
    if trace:
        import spans

        tracer = spans.install()
    t2 = time.perf_counter()
    root = tracer.open(spans.ROOT) if tracer else -1
    rc = main(argv)
    sys.stdout.flush()
    if tracer:
        tracer.close(root)
    t3 = time.perf_counter()
    record = {
        "rc": rc,
        "import_s": t1 - t0,
        "main_s": t3 - t2,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record.update(tracer.record())
    else:
        record["cal_s"] = calibrate()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(run())
