"""chamberwalk benchmark: run one workload in this process and print its metrics.

    python3 bench/run.py --workload exact-chains --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout that holds this
file.  After set-up, the workload's round of requests repeats until
``--seconds`` have passed, always in whole rounds.  Every answer is checked
apart from the program, outside the timed spans.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones (set-up, one round's
request time, median request, peak memory); with ``--trace 1`` the
functions of each layer are wrapped (see tracing.py) and the metrics are
per layer, taken over set-up and the first round.  Details go to
bench/out/.

A request's time is the fastest of its repetitions in the run.  A shared
host (here a 2-vCPU KVM guest) can switch between speeds about 1.4x apart
for seconds at a time; other load only ever adds time, so the fastest
repetition is the steady measure of the program's own cost, as with
``timeit``.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, by the kernel's clock ticks."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = _process_age()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import chamberwalk from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chamberwalk.cli  # noqa: F401  (imports every layer)
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import chamberwalk from {src}: {exc}")
    found = Path(sys.modules["chamberwalk.cli"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit(f"bench: chamberwalk came from {found}, not from {src}")


def run(args) -> dict:
    from workloads import CliResult, WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        return _run(args, workload, CliResult)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, CliResult) -> dict:
    import_program()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup()
    requests = workload.requests()
    t_first = time.perf_counter()
    setup_s = _AGE_AT_T0 + (t_first - _T0) - workload.input_seconds

    durations: dict = {}
    round_times = []
    attempted = failed = report_bytes = 0
    check_s = 0.0
    failures, problems = [], []
    layer = None
    while True:
        if round_times:
            # a fresh CLI module and fresh kernels per round: each round
            # builds what a fresh process would, instead of reading caches
            # that an earlier round filled
            importlib.reload(sys.modules["chamberwalk.cli"])
            if tracer is not None:
                tracer.install()
            requests = workload.requests()
        elapsed = 0.0
        for req in requests:
            error = None
            t0 = time.perf_counter()
            try:
                answer = req.call()
            except Exception as exc:  # a request that raises has failed
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            elapsed += dt
            attempted += 1
            durations.setdefault(req.name, []).append(dt)
            if error is None and isinstance(answer, CliResult):
                report_bytes += answer.report_bytes()
                if answer.code not in req.ok_codes:
                    error = f"exit code {answer.code}"
            if error is not None:
                failed += 1
                if len(round_times) == 0:
                    failures.append(f"{req.name}: {error}")
                continue
            t0 = time.perf_counter()
            try:
                req.check(answer)
            except Exception as exc:  # any exception in a check is a wrong answer
                problems.append(f"{req.name}: {type(exc).__name__}: {exc}")
            check_s += time.perf_counter() - t0
            del answer
        round_times.append(elapsed)
        if tracer is not None and layer is None:
            counters = tracer.snapshot_counters()
            counters.setdefault("cli.main", {})["report_bytes"] = report_bytes
            layer = (tracer.mark(), counters)
        if time.perf_counter() - t_first >= args.seconds:
            break

    fastest = {name: min(ds) for name, ds in durations.items()}
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # one round, each request at the fastest of its repetitions
            "run_s": {"value": sum(fastest.values()), "unit": "s"},
            "request_p50_s": {"value": statistics.median(fastest.values()), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(*layer)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for line in failures + problems:
        print(f"bench: {line}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(round_times), "round_s": round_times,
        "check_s": check_s,
        "setup_s": setup_s, "input_s": workload.input_seconds,
        "requests": {name: {"fastest": fastest[name], "median": statistics.median(ds)}
                     for name, ds in durations.items()},
        "failures": failures, "problems": problems, "profile": workload.profile,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json.gz",
                    {"run_s": sum(fastest.values()), "absent": tracer.absent,
                     **detail}, layer[0])
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
