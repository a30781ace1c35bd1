"""Benchmark for lietriple: fixed seeded batches in cold processes.

Run from the root of a checkout (the directory holding src/lietriple):

    python3 perfbench/run.py --workload classify --seed 1 --seconds 5 --trace 0

The workload's batch is built from --seed with the benchmark's own exact
arithmetic and run once, in order, in a fresh interpreter; every answer is
checked.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics; with --trace 1 the same batch runs under cProfile
and the object carries the per-layer metrics instead.  After an untraced
batch, fresh processes measure set-up time and the cold command-line call for
--seconds more (at least three of each, at most twelve).  Every timed interval
is reported in nominal seconds, scaled by the yardstick run around it (see
yardstick.py); the measured seconds go to standard error.
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

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import yardstick  # noqa: E402

WORKLOADS = ("classify", "extend", "degenerate")
MIN_SAMPLES = 3  # fresh set-up and CLI processes per untraced run, at least
MAX_SAMPLES = 12
BATCH_TIMEOUT_S = 170
CLI_TIMEOUT_S = 60

# the yardstick runs inside the CLI's own process, before the import and after main()
CLI_SCRIPT = f"""import json, sys
sys.path.insert(0, {HERE!r})
import yardstick
before = yardstick.measure()
from lietriple.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([before, yardstick.measure()]) + "\\n")
sys.exit(code)
"""
IMPORT_SCRIPT = "import time\nt0 = time.perf_counter()\nimport lietriple\nprint(time.perf_counter() - t0)"


class Runner:
    """Child processes of one run, all started from the checkout root."""

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"

    def python(self, args, timeout):
        return subprocess.run([sys.executable] + args, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=timeout)

    def worker(self, *args, timeout=BATCH_TIMEOUT_S):
        proc = self.python([os.path.join(HERE, "worker.py")] + list(args), timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout

    def setup_sample(self, workload):
        return json.loads(self.worker("setup", workload).strip().splitlines()[-1])

    def import_sample(self):
        proc = self.python(["-c", IMPORT_SCRIPT], CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-2000:]}")
        return float(proc.stdout.strip().splitlines()[-1])

    def cli_sample(self, argv, check):
        """Cold wall time of `lts --format json <argv>`, less the yardstick runs in it."""
        t0 = time.perf_counter()
        proc = self.python(["-c", CLI_SCRIPT, "--format", "json"] + argv, CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            return None, f"lts {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]}"
        marks = json.loads(proc.stderr.strip().splitlines()[-1])
        verdict = check(json.loads(proc.stdout))
        sample = {"t": elapsed - sum(marks), "yardstick": marks}
        return sample, None if verdict == workloads.OK else verdict


def check_records(batch, records):
    failed, wrong = [], []
    for index, record in enumerate(records):
        try:
            verdict = batch.check(index, record)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            verdict = f"unreadable answer: {type(exc).__name__}: {exc}"
        if verdict == workloads.FAILED:
            failed.append(f"{batch.labels[index]}: {record['error'] or 'no answer'}")
        elif verdict != workloads.OK:
            wrong.append(f"{batch.labels[index]}: {verdict}")
    return failed, wrong


def metric(value, unit):
    return {"value": value, "unit": unit}


def nominal(sample):
    return yardstick.nominal(sample["t"], *sample["yardstick"])


def latency_metrics(records, setups, clis, time_of):
    """The end-to-end timings, with time_of giving each sample's seconds."""
    times = [time_of(r) for r in records]
    return {
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_p75_ms": metric(statistics.quantiles(times, n=4)[2] * 1e3, "ms"),
        "setup_s": metric(statistics.median(time_of(s) for s in setups), "s"),
        "cli_s": metric(statistics.median(time_of(c) for c in clis), "s"),
    }


def run(args, root, spec):
    batch = workloads.build(args.workload, args.seed)
    scratch = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(root)
        batch_path = os.path.join(workdir, "batch.json")
        out_path = os.path.join(workdir, "out.json")
        with open(batch_path, "w") as handle:
            json.dump({"ops": batch.ops, "micro": batch.micro}, handle)
        cli_argv, cli_files, cli_check = batch.cli
        for name, doc in cli_files.items():
            with open(os.path.join(workdir, name), "w") as handle:
                json.dump(doc, handle)
        cli_argv = [os.path.join(workdir, a) if a in cli_files else a for a in cli_argv]
        runner.import_sample()  # compile the bytecode cache before anything is timed

        extra = ["--profile"] if args.trace else []
        runner.worker("batch", args.workload, batch_path, out_path, *extra)
        with open(out_path) as handle:
            result = json.load(handle)
        records = result["records"]
        failed, wrong = check_records(batch, records)
        metrics = {}
        if args.trace:
            layers = dict(result["layers"])
            layers["catalog.certified"] = sum(
                1 for r in records if r["out"] and r["out"].get("confidence") == "certified")
            layers["import_s"] = statistics.median(runner.import_sample()
                                                   for _ in range(MIN_SAMPLES))
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
            if missing:
                raise RuntimeError(f"per-layer metrics not measured: {', '.join(missing)}")
            for m in spec["per_layer"]:
                metrics[m["name"]] = metric(layers[m["name"]], m["unit"])
            traced = len(records) / sum(r["t"] for r in records)
            print(f"measured seconds, traced: ops_per_s {traced:.4f}", file=sys.stderr)
        else:
            setups, clis = [result["setup"]], []
            deadline = time.perf_counter() + args.seconds
            while (len(setups) <= MIN_SAMPLES or len(clis) < MIN_SAMPLES
                   or (time.perf_counter() < deadline and len(clis) < MAX_SAMPLES)):
                setups.append(runner.setup_sample(args.workload))
                sample, problem = runner.cli_sample(cli_argv, cli_check)
                if problem:
                    wrong.append(problem)
                if sample is None:
                    raise RuntimeError(problem)
                clis.append(sample)
            metrics = latency_metrics(records, setups, clis, nominal)
            metrics["peak_rss_mb"] = metric(result["peak_rss_mb"], "MB")
            raw = latency_metrics(records, setups, clis, lambda sample: sample["t"])
            print("measured seconds, before the yardstick: "
                  + json.dumps({k: round(v["value"], 4) for k, v in raw.items()}), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    return {"correct": not wrong, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lietriple", "__init__.py")):
        print("run from the root of a lietriple checkout: src/lietriple is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    print(json.dumps(run(args, root, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
