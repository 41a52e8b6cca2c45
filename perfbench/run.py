"""planarough benchmark: cold CLI runs of fixed workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in ``workloads.py``.
The load is a closed loop with one client: one ``planarough`` CLI process at
a time, each started fresh, the next only after the previous has exited.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of import, config parse and the
  algebra tables of every alphabet the workload uses (``probes.py setup``);
* ``wall_s`` / ``wall_jobs2_s``: median wall time of the CLI at ``--jobs 1``
  and ``--jobs 2``;
* ``peak_rss_mb``: median peak resident memory of the ``--jobs 1`` process.

A cycle of one set-up probe, one ``--jobs 1`` and one ``--jobs 2`` run
repeats for ``--seconds``.

``--trace 1`` prints the per-layer metrics: the self time and work counts of
each layer from an in-process traced run (``probes.py trace``), the ★ kernel
table (``probes.py kernels``), the traced/untraced wall ratio and the
``--jobs 2`` speed-up.

Every CLI run is checked: exit code 0, no traceback, a PASS verdict per
experiment, and report bytes identical across repeats, across ``--jobs 1``
and ``2`` and between traced and untraced runs.  An experiment run that
breaks any of these counts as failed; ``fail_ratio`` = failed / attempted.
Reports are also hashed against ``reference_digests.json``; a difference is
counted as ``report_drift``, not as a failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from probes import layer_metrics
from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
# OpenBLAS starts one thread per core in every process by default, so
# ``--jobs 2`` on two cores would run four; pin one thread per process.
BLAS_THREADS = "1"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 60.0  # a normal child takes under 10 s; the run must end in 180 s
LAUNCH_CLI = "import sys; from planarough.cli import main; sys.exit(main())"


class Bench:
    """One benchmark run: a workload's config, a scratch directory, tallies."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.command, text = generate(workload, seed)
        self.names = sorted(e["name"] for e in json.loads(text)["experiments"])
        with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
            refs = json.load(fh)
        self.reference = (
            refs.get(workload)
            if workload == "ito-suite" or seed == refs["seed"]
            else None
        )
        self.work = os.path.join(
            root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}"
        )
        os.makedirs(self.work, exist_ok=True)
        self.config = os.path.join(self.work, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
        )
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.baseline = None  # experiment name -> digest of its output files
        self.drift = 0

    # -- child processes ----------------------------------------------------

    def spawn(self, argv, tag: str) -> dict:
        """Run one child to completion; wall time, peak RSS, exit code, output."""
        out_path = os.path.join(self.work, f"{tag}.stdout")
        err_path = os.path.join(self.work, f"{tag}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv,
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            # a hung run is killed with every process it started
            watchdog = threading.Timer(
                CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
            )
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {
            "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "code": proc.returncode,
            "stdout": stdout,
            "stderr": stderr,
        }

    def probe(self, *args) -> dict:
        """Run ``probes.py``; its last stdout line is a JSON object."""
        res = self.spawn([os.path.join(HERE, "probes.py"), *args], "probe")
        if res["code"] != 0:
            raise RuntimeError(f"probe {args[0]} failed:\n{res['stderr']}")
        return json.loads(res["stdout"].strip().splitlines()[-1])

    # -- checked CLI runs ---------------------------------------------------

    def _digests(self, out: str) -> dict:
        digests = {}
        for name in self.names:
            h = hashlib.sha256()
            exp_dir = os.path.join(out, name)
            for dirpath, dirnames, filenames in os.walk(exp_dir):
                dirnames.sort()
                for fn in sorted(filenames):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, exp_dir).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
                    h.update(b"\0")
            digests[name] = h.hexdigest()
        return digests

    def check(self, res: dict, out: str, traced: bool = False) -> None:
        """Count failed experiments of one CLI run; record drift and baseline."""
        self.runs += 1
        self.attempted += len(self.names)
        if (
            res["code"] != 0
            or "Traceback" in res["stderr"]
            or not os.path.isfile(os.path.join(out, "summary.json"))
        ):
            failed = set(self.names)
        else:
            verdicts = {}
            for line in res["stdout"].splitlines():
                parts = line.split()
                if len(parts) >= 3 and parts[1] == self.command:
                    verdicts[parts[2]] = parts[0]
            digests = self._digests(out)
            if self.baseline is None:
                self.baseline = digests
                if self.reference is not None:
                    self.drift = sum(
                        digests[n] != self.reference.get(n) for n in self.names
                    )
            failed = {
                n
                for n in self.names
                if verdicts.get(n) != "PASS" or digests[n] != self.baseline[n]
            }
        self.failed += len(failed)
        if failed:
            kind = "traced" if traced else "cli"
            print(f"FAILED {kind} run {self.runs}: {sorted(failed)}\n{res['stderr'][-2000:]}",
                  file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)

    def cli(self, jobs: int) -> dict:
        out = os.path.join(self.work, f"out-{self.runs}")
        argv = ["-c", LAUNCH_CLI, self.command, "--config", self.config,
                "--out", out, "--jobs", str(jobs)]
        res = self.spawn(argv, "cli")
        self.check(res, out)
        return res

    def traced(self) -> tuple:
        out = os.path.join(self.work, f"out-{self.runs}")
        trace_path = os.path.join(self.work, "trace.json")
        argv = [os.path.join(HERE, "probes.py"), "trace", self.command,
                self.config, out, trace_path]
        res = self.spawn(argv, "traced")
        self.check(res, out, traced=True)
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        return res, layer_metrics(trace)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------


def closed_loop(seconds: float, cycle) -> None:
    """Run ``cycle`` back to back; start another only if it fits the window.

    The first cycle always runs; the previous cycle's duration predicts the
    next one's.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cycle()
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    setup = []
    walls = {1: [], 2: []}
    rss = []

    def cycle():
        # one set-up probe per cycle spreads them over the window, as the
        # machine's speed drifts over tens of seconds
        setup.append(bench.probe("setup", bench.command, bench.config)["setup_s"])
        for jobs in (1, 2):
            res = bench.cli(jobs)
            walls[jobs].append(res["wall"])
            if jobs == 1:
                rss.append(res["rss_mb"])

    closed_loop(seconds, cycle)
    samples = {"setup_s": setup, "wall_s": walls[1], "wall_jobs2_s": walls[2],
               "peak_rss_mb": rss}
    units = {"setup_s": "s", "wall_s": "s", "wall_jobs2_s": "s", "peak_rss_mb": "MB"}
    metrics = {}
    for key, values in samples.items():
        q1, q3 = quartiles(values)
        print(f"{key:14s} {statistics.median(values):10.4f} {units[key]:3s}"
              f" q1 {q1:.4f} q3 {q3:.4f} n {len(values)}")
        metrics[key] = {"value": statistics.median(values), "unit": units[key]}
    return metrics


PER_LAYER_UNITS = {"_s": "s", "_flops": "flop", "_bytes_computed": "B",
                   "_bytes": "B", "_speedup": "ratio", "_overhead": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure_per_layer(bench: Bench, seconds: float) -> dict:
    kernels = bench.probe("kernels")
    rows = []

    def cycle():
        untraced = bench.cli(1)
        jobs2 = bench.cli(2)
        traced, layers = bench.traced()
        layers["cli.jobs2_speedup"] = untraced["wall"] / jobs2["wall"]
        layers["trace_overhead"] = traced["wall"] / untraced["wall"]
        rows.append(layers)

    closed_loop(seconds, cycle)
    # median_low keeps counts whole: it is always one cycle's value
    metrics = {key: statistics.median_low(r[key] for r in rows) for key in rows[0]}
    metrics["ito_verify.report_drift"] = bench.drift
    metrics.update(kernels)

    total = metrics["cli.main_s"]
    print(f"traced cli.main {total:.4f} s over {len(rows)} cycle(s); self-time shares:")
    for key in sorted(metrics, key=lambda k: -metrics[k] if k.endswith("_s") else 0):
        if key.endswith("_s") and key != "cli.main_s" and not key.startswith("hopf_mkw.kernel"):
            print(f"  {key:32s} {metrics[key]:9.4f} s {100 * metrics[key] / total:5.1f}%")
    return {key: {"value": value, "unit": _unit(key)}
            for key, value in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "planarough", "cli.py")):
        print("run from the repository root: src/planarough not found", file=sys.stderr)
        return 2
    try:
        bench = Bench(root, args.workload, args.seed)
    except OSError as exc:
        print(f"cannot prepare workload {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"workload {args.workload} seed {args.seed} command {bench.command}"
              f" experiments {len(bench.names)} seconds {args.seconds:g}"
              f" trace {args.trace} OPENBLAS_NUM_THREADS={BLAS_THREADS}"
              f" clients 1 (closed loop) nproc {os.cpu_count()}")
        bench.probe("setup", bench.command, bench.config)  # byte-compile, warm caches
        if args.trace:
            metrics = measure_per_layer(bench, args.seconds)
        else:
            metrics = measure_end_to_end(bench, args.seconds)
    finally:
        bench.close()
    ratio = bench.failed / bench.attempted
    print(f"fail_ratio     {ratio:10.4f} 1   ({bench.failed}/{bench.attempted}"
          f" experiment runs in {bench.runs} CLI runs)")
    print(f"report_drift   {bench.drift:10d} count"
          + ("" if bench.reference is not None else " (no reference for this seed)"))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
