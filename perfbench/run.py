"""Closed-loop benchmark of asymmbench through its batch front door.

    python3 perfbench/run.py --workload frontier|recovery|kernels \
        --seed N --seconds S --trace 0|1

One client runs the workload's jobs one after another, each through
``cli.parse_config`` -> ``cli.run`` -> ``report_to_json`` + ``emit_csv``
(in memory).  The batch of jobs runs at least twice, and again until
about ``--seconds`` are measured.  Outputs are checked after each batch,
outside the timed region.  ``wall_scaled_s`` is the median batch time,
rescaled to a fixed machine speed by the probe in ``speed.py``; the raw
median (``wall_s``) is in the ``info`` line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced batch and prints the per-layer metrics, and
writes the spans to ``perfbench/out/``.  The last line of stdout is the
result object; the line before it (``info ...``) carries machine facts,
the record digest, ``fail_frac`` and ``irrev_mean``.
"""
import os

# Matrices here are at most 27x27: BLAS threads only add jitter.  Pin
# them before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
READY = "perfbench-setup-ready"


def _import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "asymmbench" / "__init__.py").is_file():
        sys.exit(f"perfbench: no asymmbench package under {SRC}")
    sys.path.insert(0, str(SRC))
    import asymmbench

    if Path(asymmbench.__file__).resolve().parent != SRC / "asymmbench":
        sys.exit(f"perfbench: imported asymmbench from {asymmbench.__file__}")


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def prepare(workload: str, seed: int, work_dir: Path):
    """Generate the jobs, write their configs, parse each once, warm up."""
    from asymmbench import cli

    from workloads import JOBS

    jobs = JOBS[workload](seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = work_dir / f"{i:02d}-{job.name}.json"
        path.write_text(json.dumps(job.config))
        cli.parse_config(path)
        paths.append(path)
    # Warm-up: one short recovery ascent loads every lazily initialised
    # numpy/LAPACK path the jobs use.
    warm = work_dir / "warmup.json"
    warm.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "experiment": "irrev",
                "target": {"rows": 2, "cols": 2, "re": [0.5, 0, 0, 0.5], "im": [0, 0, 0, 0]},
                "optimizer": {"max_iter": 3, "restarts": 1},
            }
        )
    )
    cli.run(cli.parse_config(warm))
    return jobs, paths


def measure_setup(args) -> list[float]:
    """Seconds from process start to ready-for-the-first-job, per fresh process.

    Each process probes its own speed while it sets up (speed.py); its
    time, less the probes', is rescaled like the batch times.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            ready = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait()
        if len(line) != 3 or line[0] != READY or code != 0:
            sys.exit(f"perfbench: setup probe failed (exit {code}, said {line!r})")
        spent, factor = float(line[1]), float(line[2])
        samples.append((ready - spent) * factor)
    return samples


def run_batch(paths, tracer=None):
    """Run every job once, back to back; returns the outputs."""
    from asymmbench import cli
    from asymmbench.report import emit_csv, report_to_json

    outputs = []
    for i, path in enumerate(paths):
        if tracer is not None:
            tracer.current_job = i
        try:
            with tracer.span("harness.job") if tracer is not None else nullcontext():
                report = cli.run(cli.parse_config(path))
                text, csv_text = report_to_json(report), emit_csv(report)
            outputs.append((report, text, csv_text, None))
        except Exception as exc:  # a job that raises counts as failed
            outputs.append((None, None, None, f"{type(exc).__name__}: {exc}"))
    return outputs


def check_batch(jobs, outputs):
    """Check every job's outputs; returns (problems per job, digest, irrevs)."""
    digest = hashlib.sha256()
    problems, irrevs = [], []
    for job, (report, text, csv_text, error) in zip(jobs, outputs):
        if error is not None:
            problems.append([f"{job.name}: {error}"])
            digest.update(f"{job.name}: error\n".encode())
            continue
        bad = [f"assertion {a['name']} failed" for a in report.assertions if not a["passed"]]
        if csv_text.count("\r\n") != len(report.records) + 1:
            bad.append("CSV does not hold a header plus one row per record")
        try:
            if job.check is not None:
                bad += job.check(report)
            if job.irrev is not None:
                irrevs += job.irrev(report)
        except Exception as exc:  # a report the check cannot read fails it
            bad.append(f"check raised {type(exc).__name__}: {exc}")
        problems.append([f"{job.name}: {p}" for p in bad])
        payload = json.loads(text)
        payload.pop("wall_time_s")
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return problems, digest.hexdigest(), irrevs


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer counters and time shares from the traced batch's spans.

    Times are given as shares of the traced batch's wall time
    (``trace.wall_s``): a layer a workload never calls reads 0 on every
    run, which is a count of nothing, not a measured time.
    """
    import numpy as np

    from tracer import TARGETS

    names, dur, self_t, parent = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    out = {}

    def mask(name):
        return names == ids.get(name, -1)

    def count(key, value):
        out[key] = {"value": float(value), "unit": "count"}

    def share(key, seconds):
        out[key] = {"value": float(seconds) / traced_wall, "unit": "ratio"}

    def calls_self(span):
        m = mask(span)
        count(f"{span}.calls", m.sum())
        share(f"{span}.self_share", self_t[m].sum())

    project = mask("optimize.project")
    eig_parent = parent[mask("linalg.hermitian_eig")]
    rounds_of = np.bincount(eig_parent[eig_parent >= 0], minlength=len(names))
    tags = np.array([tracer.info.get(i, {}).get("tag", "") for i in range(len(names))])
    calls_self("optimize.project")
    share("optimize.project.share", dur[project].sum())
    count("optimize.project.rounds", rounds_of[project].sum())
    count(
        "optimize.project.failures",
        sum(1 for i, e in tracer.errors.items() if project[i] and e == "NoConvergence"),
    )
    for d in (4, 8, 9):
        m = project & (tags == f"D{d}")
        count(f"optimize.project.D{d}.calls", m.sum())
        count(f"optimize.project.D{d}.rounds", rounds_of[m].sum())
        share(f"optimize.project.D{d}.self_share", self_t[m].sum())

    recovery = np.flatnonzero(mask("optimize.recovery"))
    infos = [tracer.info[int(i)] for i in recovery if int(i) in tracer.info]
    count("optimize.recovery.calls", len(recovery))
    share("optimize.recovery.share", dur[recovery].sum())
    count("optimize.recovery.trace_len", sum(i["trace_len"] for i in infos))
    count("optimize.recovery.unconverged", sum(1 for i in infos if not i["converged"]))

    broadcast = mask("optimize.broadcast")
    ascend_parent = parent[mask("optimize.ascend")]
    count("optimize.broadcast.calls", broadcast.sum())
    share("optimize.broadcast.share", dur[broadcast].sum())
    count("optimize.broadcast.attempts", broadcast[ascend_parent[ascend_parent >= 0]].sum())

    calls_self("optimize.fidelity_gradient")
    for target in TARGETS:
        if target.span.split(".")[0] in ("linalg", "qtypes", "symmetry", "ki"):
            calls_self(target.span)

    experiments = np.isin(names, [i for n, i in ids.items() if n.startswith("experiments.")])
    share("experiments.self_share", self_t[experiments].sum())
    share("cli.run.self_share", self_t[mask("cli.run")].sum())
    share("cli.parse_config.share", dur[mask("cli.parse_config")].sum())
    emit = mask("report.report_to_json") | mask("report.emit_csv")
    share("report.emit.share", dur[emit].sum())
    out["report.bytes"] = {
        "value": float(sum(tracer.info[int(i)]["bytes"] for i in np.flatnonzero(emit))),
        "unit": "bytes",
    }

    in_layers = dur[np.isin(parent, np.flatnonzero(mask("harness.job")))].sum()
    share("harness.self_share", traced_wall - in_layers)
    out["trace.coverage"] = {"value": float(in_layers / traced_wall), "unit": "ratio"}
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    count("trace.spans", len(names))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("frontier", "recovery", "kernels"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            from speed import SpeedProbe

            with SpeedProbe() as probe:
                prepare(args.workload, args.seed, work_dir)
            print(READY, probe.spent, probe.factor(), flush=True)
            return 0
        return _benchmark(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _benchmark(args, work_dir: Path) -> int:
    facts = machine_facts(args.seed)
    setup = [] if args.trace else measure_setup(args)
    jobs, paths = prepare(args.workload, args.seed, work_dir)

    walls, scaled, digests, problems, irrevs = [], [], [], [], []

    def one_batch(tracer=None, probe=None):
        mark = probe.mark() if probe is not None else None
        started = time.perf_counter()
        outputs = run_batch(paths, tracer)
        if probe is not None:
            wall, fixed_speed = probe.since(mark)
            scaled.append(fixed_speed)
        else:
            wall = time.perf_counter() - started
        walls.append(wall)
        bad, digest, irrev = check_batch(jobs, outputs)
        digests.append(digest)
        problems.extend(bad)
        irrevs.extend(irrev)

    tracer = None
    if args.trace:
        from tracer import Tracer

        one_batch()
        tracer = Tracer()
        tracer.install()
        try:
            one_batch(tracer)
        finally:
            tracer.restore()
    else:
        from speed import SpeedProbe

        # Batches until about --seconds are measured, and at least two,
        # so that the digest check compares repeats.
        with SpeedProbe() as probe:
            while len(walls) < 2 or sum(walls) + walls[-1] / 2 <= args.seconds:
                one_batch(probe=probe)

    failed = sum(1 for p in problems if p)
    deterministic = len(set(digests)) == 1
    for p in problems:
        for line in p:
            print(f"perfbench: FAIL {line}", file=sys.stderr)
    if not deterministic:
        print(f"perfbench: FAIL batch digests differ: {digests}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, walls[1], walls[0])
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            # Batch makespan rescaled to a fixed machine speed (speed.py),
            # the median over the run's batches.
            "wall_scaled_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},  # rescaled too
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    info = {
        "workload": args.workload,
        "machine": facts,
        "digest": digests[0],
        "batches": len(walls),
        "batch_walls_s": walls,
        "batch_scaled_s": scaled,
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_samples_s": setup,
        "fail_frac": {"value": failed / len(problems), "unit": "ratio"},
        "irrev_mean": (
            {"value": statistics.fmean(irrevs), "unit": "irrev"} if irrevs else None
        ),
    }
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": len(problems),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
