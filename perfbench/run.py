"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kw-large --seed 1 --seconds 20 --trace 0

Sets the workload up ``setup_repeats`` times (reporting the median), then
runs timed ops until ``--seconds`` have passed and the workload's minimum
op count is reached, then checks every answer untimed.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced ops and reports the per-layer metrics from the traced ones plus
the tracing overhead, and writes the spans to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, the per-metric sample counts and any failures.
The program under test is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("requests_per_s", "1/s"),
    ("ds_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def run_workload(workload, seconds: float, trace: bool) -> dict:
    """Set up, run timed ops, check; return everything the report needs."""
    from perfbench import measure as m
    from perfbench.layers import PROBES
    from perfbench.spans import Tracer

    setup_times = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer(PROBES) if trace else None
    ops, errors = [], []
    began = time.perf_counter()
    index = 0
    while index < workload.min_ops or time.perf_counter() - began < seconds:
        prepared = workload.prepare(index)
        traced = trace and index % 2 == 1
        gc.collect()
        if traced:
            tracer.current_op = index
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.run(index, prepared)
        except Exception as error:  # noqa: BLE001 -- a failed op is counted, not fatal
            result = None
            errors.append(f"op {index}: {type(error).__name__}: {error}")
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                tracer.current_op = None
        ops.append((index, traced, wall, result))
        index += 1
    # Before the checks, whose helper processes are not the program's.
    peak_rss_mb = m.peak_rss_mb()

    try:
        checked = workload.check()
        failures, ds_ratio = checked.failures, checked.ds_ratio
    except Exception as error:  # noqa: BLE001 -- a failed check is counted
        failures, ds_ratio = [f"check: {type(error).__name__}: {error}"], float("nan")
    return {
        "setup_times": setup_times,
        "ops": ops,
        "errors": errors,
        "failures": failures,
        "ds_ratio": ds_ratio,
        "peak_rss_mb": peak_rss_mb,
        "spans": tracer.spans if tracer else [],
    }


def _number(value: float) -> float:
    return value if value == value and abs(value) != float("inf") else 0.0


def report(workload, measured: dict, trace: bool) -> tuple[dict, dict]:
    """(result line, detail line) for one measured run."""
    from perfbench import measure as m
    from perfbench.layers import PER_LAYER, layer_metrics

    ops = measured["ops"]
    done = [(traced, wall, result) for _, traced, wall, result in ops if result is not None]
    attempted = sum(r.attempted for _, _, r in done) + len(measured["errors"])
    op_failed = sum(r.failed for _, _, r in done) + len(measured["errors"])
    failed = min(attempted, op_failed + len(measured["failures"]))
    untraced = [(wall, r) for traced, wall, r in done if not traced]
    samples = [s for _, r in untraced for s in r.samples]
    counts: dict[str, int] = {"setup_s": len(measured["setup_times"])}
    extra: dict[str, float] = {}

    if trace:
        traced = [(wall, r) for traced, wall, r in done if traced]
        traced_samples = [s for _, r in traced for s in r.samples]
        values = layer_metrics(
            measured["spans"],
            [r for _, r in traced],
            [wall for wall, _ in traced],
            workers=getattr(workload, "WORKERS", 1),
        )
        values["trace.overhead_share"] = (
            m.median(traced_samples) / m.median(samples) - 1.0
            if traced_samples and samples
            else 0.0
        )
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        counts.update({name: len(traced_samples) for name in units})
        counts["trace.overhead_share"] = min(len(traced_samples), len(samples))
    else:
        tail_value, extra["op_tail_percentile"] = m.tail(samples) if samples else (0.0, 0.0)
        wall = sum(wall for wall, _ in untraced)
        values = {
            "setup_s": m.median(measured["setup_times"]),
            "op_p50_s": m.median(samples) if samples else 0.0,
            "op_tail_s": tail_value,
            "requests_per_s": len(samples) / wall if wall else 0.0,
            "ds_ratio": measured["ds_ratio"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        counts.update(
            {
                "op_p50_s": len(samples),
                "op_tail_s": len(samples),
                "requests_per_s": len(samples),
                "ds_ratio": sum(r.attempted for _, r in untraced),
                "peak_rss_mb": 1,
            }
        )
    metrics = {
        name: {"value": _number(float(values[name])), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "trace": trace,
        "ops": len(ops),
        "samples": counts,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": (measured["errors"] + measured["failures"])[:20],
        "setup_times_s": measured["setup_times"],
        "op_walls_s": [wall for _, _, wall, _ in ops],
        **extra,
    }
    return result, detail


def _write_spans(workload_name: str, seed: int, spans) -> Path:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload_name}-seed{seed}.json"
    rows = [
        {
            "id": s.span_id,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "op": s.op,
            "requests": list(s.requests),
            "thread": s.thread,
        }
        for s in spans
    ]
    path.write_text(json.dumps(rows))
    return path


def _exit_on_sigterm(signum, frame) -> None:
    # Unwinds through every ``finally``, so shard workers and service
    # threads are closed and joined instead of left behind.
    raise SystemExit(128 + signum)


def _stop_helpers() -> None:
    """Stop and reap every process this run started.

    The first shared-memory segment or semaphore starts multiprocessing's
    resource tracker, which would otherwise outlive this process for the
    moment it takes to notice its end.  Collecting first runs the
    finalizers that still need the tracker, so none restarts it at exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(args)
    finally:
        _stop_helpers()


def _main(args: argparse.Namespace) -> int:
    _import_program()
    from perfbench.measure import environment
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        measured = run_workload(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    result, detail = report(workload, measured, bool(args.trace))
    detail["env"] = environment(args.seed)
    if args.trace:
        detail["spans_file"] = str(
            _write_spans(workload.name, args.seed, measured["spans"]).relative_to(ROOT)
        )
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']:<6s} "
              f"n={detail['samples'][name]}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
