"""Run one workload of the hwsim benchmark and print its metrics.

    python3 perfbench/run.py --workload queue_ctmc --seed 1 --seconds 25 --trace 0

It imports hwsim from ``src/`` beside its own directory.  The
workload's fixed batch of calls is repeated, with the same seed-generated
inputs, until ``--seconds`` have passed.  Each repetition writes to a fresh
directory under ``.perfbench_out/`` that is removed afterwards.

``--trace 0`` reports the end-to-end metrics from untraced repetitions:
``setup_s`` (median over fresh processes of the time from process start to
the first call into a layer), ``wall_s`` (median time of the batch),
``peak_rss_mb`` and ``work_per_s`` (queue events, distinct Euler-Maruyama
replica-steps or certified pairs per second of ``wall_s``).  Both times are
in reference seconds (see calibrate.py); the measured ones are in the
details line.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the median traced one, in measured
seconds; its spans are written to ``.perfbench_out/spans/``.

The second-to-last line of standard output is a JSON object of details (the
artefact hash, the failure fraction, the workload's throughput under its own
name).  The last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh processes timed from start to the first call into a layer; one more
# runs first, unmeasured, so every measured one finds compiled bytecode.
SETUP_PROBES = 3


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pin_threads() -> None:
    # one BLAS thread: the second core absorbs noise from other processes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="hwsim benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_probe(workload: str, seed: int) -> int:
    """Child process: import, generate and parse the config, print the clock."""
    import calibrate

    with calibrate.SpeedProbe() as probe:
        import workloads as wl
        from hwsim import cli

        cfg = cli.parse_config(wl.make_config(workload, seed, wl.FULL[workload]))
        if cfg.arrival_kind == "renewal":
            wl.check_renewal_config(cfg)
        end = time.monotonic()
    print(json.dumps({"end": end, "spent": probe.spent, "samples": probe.samples}))
    return 0


def measure_setup(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to the first call into a layer, per probe,
    measured and in reference seconds."""
    import calibrate

    raw, ref = [], []
    for i in range(probes + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i > 0:
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            raw.append(probe["end"] - t0)
            ref.append(calibrate.reference_seconds(raw[-1], probe["spent"], probe["samples"]))
    return raw, ref


def _repeat(prep, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Run the batch until ``seconds`` have passed.

    Untraced: every repetition also runs under a speed probe.  Traced:
    repetitions alternate untraced and traced, at least one of each, and
    no probe runs.
    """
    import calibrate
    import workloads as wl
    if trace:
        import spans
    reps = []
    t_start = time.monotonic()
    while True:
        i = len(reps)
        out = work / f"rep{i}"
        tracer = spans.Tracer(i) if trace and i % 2 == 1 else None
        if tracer is not None:
            tracer.install()
            try:
                res = wl.run_batch(prep, out)
            finally:
                tracer.uninstall()
        elif trace:
            res = wl.run_batch(prep, out)
        else:
            with calibrate.SpeedProbe() as probe:
                res = wl.run_batch(prep, out)
        rep = {"wall": res.wall_s, "tracer": tracer,
               "outcome": wl.check_outputs(prep, out, res),
               "hash": wl.artefact_hash(out, res)}
        if tracer is not None:
            rep["layers"] = spans.layer_metrics(tracer, res.wall_s, wl.bytes_written(out))
        elif not trace:
            rep["reference_wall"] = probe.reference_seconds(res.wall_s)
        shutil.rmtree(out, ignore_errors=True)
        reps.append(rep)
        if time.monotonic() - t_start >= seconds and (not trace or len(reps) >= 2):
            break
    return reps


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 size: dict | None = None, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Measure one workload; returns (details, result)."""
    import workloads as wl

    size = wl.FULL[workload] if size is None else size
    base = root / ".perfbench_out"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    try:
        if not trace:
            setup_raw, setup = measure_setup(workload, seed, probes)
        prep = wl.prepare(workload, seed, size, work)
        reps = _repeat(prep, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["outcome"].attempted for r in reps)
    failed = sum(r["outcome"].failed for r in reps)
    hashes = sorted({r["hash"] for r in reps})
    plain = [r["wall"] for r in reps if r["tracer"] is None]
    work_done = reps[0]["outcome"].work
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "repetitions": len(reps), "untraced_wall_s": plain,
        "artefact_sha256": hashes[0] if len(hashes) == 1 else hashes,
        "fail_frac": failed / attempted if attempted else 1.0,
        wl.WORK_UNIT[workload]: work_done / statistics.median(plain),
        "failures": sorted({n for r in reps for n in r["outcome"].notes})[:20],
    }
    if trace:
        traced = sorted((r for r in reps if r["tracer"] is not None), key=lambda r: r["wall"])
        mid = traced[(len(traced) - 1) // 2]
        metrics = dict(mid["layers"])
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(plain))
        path = base / "spans" / f"{workload}-seed{seed}.csv.gz"
        mid["tracer"].write(path)
        details["spans_file"] = str(path.relative_to(root))
        details["traced_wall_s"] = [r["wall"] for r in traced]
    else:
        # times in reference seconds (calibrate.py); raw ones are in the details
        wall = statistics.median(r["reference_wall"] for r in reps)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": work_done / wall,
        }
        details.update(setup_s=setup_raw, reference_wall_s=[r["reference_wall"] for r in reps])
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"{kind} metrics measured and declared in BENCHMARK.json differ: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0 and len(hashes) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "hwsim" / "__init__.py").is_file():
        print(f"error: hwsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    details, result = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
