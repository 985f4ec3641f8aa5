"""Benchmark of bridgeref: set-up, resolution throughput and the CLI.

    python3 bench/run.py --workload long_doc --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --quick          # every workload small, all checks

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory.  A run repeats whole rounds until
``--seconds`` would be exceeded (at least ``MIN_ROUNDS``).  A round is:

1. a worker in a fresh interpreter (bench/worker.py) that sets up, resolves
   every document once in a timed pass, and reports its results;
2. the workload's CLI command sequence, one child at a time, each timed
   from spawn to exit, with its peak resident memory from ``wait4``.

End-to-end metrics (``--trace 0``) aggregate the rounds (see ``metrics``).  With
``--trace 1`` each round runs an untraced worker, a traced one and the CLI
sequence; the per-layer metrics come from the traced worker, and
``trace.overhead_pct`` compares its pass with the untraced one.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Inputs, outputs and the trace are written under
``.bench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150


class Child:
    """One child process at a time: wall time spawn to exit, peak RSS, exit code."""

    def __init__(self, argv, stdout: Path, stderr: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with stdout.open("wb") as out, stderr.open("wb") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:      # interrupted: do not leave the child behind
                    proc.kill()
                    proc.wait()
            self.end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.wall_s = self.end - self.start
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr.read_text(encoding="utf-8", errors="replace")[-2000:]


def _cli_argv(spec: dict, command: list[str], work: Path) -> list[str]:
    base = [sys.executable, "-m", "bridgeref.cli", command[0], "--corpus", spec["corpus"]]
    if command[0] == "resolve":
        return base + ["--lexicons", spec["lexicons"], "--out", str(work / "cli_predictions.tsv")]
    if command[0] == "eval":
        return base + ["--predictions", str(work / "cli_predictions.tsv")]
    raise ValueError(f"unknown CLI command {command!r}")


def parse_prediction_file(text: str) -> list[list]:
    """The CLI's predictions file, read without bridgeref."""
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("%"):
            continue
        doc_id, anaphor, slot, winner, total = line.split("\t")
        rows.append([doc_id, int(anaphor), None if slot == "-" else slot,
                     None if winner == "NONE" else int(winner), int(total)])
    return rows


def parse_eval_output(text: str) -> dict:
    """Counts per class from the ``eval`` report, as [correct, gold, system].

    A rate reads ``63% (20/32)``, or ``-`` when its denominator is 0.  The
    report pads its recall column to 16 characters only, so a 16-character
    rate runs into the precision column; the pattern does not need a blank.
    """
    counts = {}
    names = {"verbal": "verbal", "non-verbal": "non_verbal"}
    for line in text.splitlines():
        name, _, rest = line.partition(" ")
        if name not in names:
            continue
        rates = [(int(a), int(b)) if a else (0, 0)
                 for a, b in re.findall(r"\d+% \((\d+)/(\d+)\)|-", rest)]
        (correct, gold), (correct_p, system) = rates
        counts[names[name]] = [max(correct, correct_p), gold, system]
    return counts


class Run:
    """State of one benchmark run: rounds, operation counts and checks."""

    def __init__(self, spec: dict, work: Path, trace: bool) -> None:
        self.spec, self.work, self.trace = spec, work, trace
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.gold_counts = None
        self.samples: dict[str, list[float]] = {}
        self.layer_samples: dict[str, list] = {}

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def worker(self, flags: list[str]) -> tuple[dict, float]:
        out_path = self.work / "worker.json"
        if out_path.exists():
            out_path.unlink()
        child = Child([sys.executable, str(ROOT / "bench" / "worker.py"),
                       str(self.work / "spec.json"), str(out_path), *flags],
                      self.work / "worker.out", self.work / "worker.err")
        if child.returncode != 0 or not out_path.exists():
            raise RuntimeError(f"worker {flags} exited {child.returncode}:\n{child.stderr}")
        out = json.loads(out_path.read_text(encoding="utf-8"))
        if self.digest is None:
            self.digest = out["digest"]
        elif out["digest"] != self.digest:
            self.problems.append("a round's score tables differ from the first round's")
        self.problems.extend(out["problems"])
        for doc_id, error in list(out["errors"].items())[:3]:
            print(f"  {doc_id} failed: {error}", file=sys.stderr)
        if "gold_counts" in out:
            self.gold_counts = out["gold_counts"]
        return out, out["t_ready"] - child.start

    def cli_sequence(self, worker_out: dict) -> None:
        wall, rss = 0.0, 0.0
        for command in self.spec["cli"]:
            stdout = self.work / "cli.out"
            child = Child(_cli_argv(self.spec, command, self.work), stdout,
                          self.work / "cli.err")
            wall += child.wall_s
            rss = max(rss, child.peak_rss_mb)
            self.attempted += 1
            if child.returncode != 0:
                self.failed += 1
                print(f"bridgeref {command[0]} exited {child.returncode}: "
                      f"{child.stderr.strip()[-300:]}", file=sys.stderr)
                continue
            self._check_cli(command, stdout.read_text(encoding="utf-8"), worker_out)
        self._sample("cli_wall_s", wall)
        self._sample("peak_rss_mb", rss)

    def _check_cli(self, command: list[str], stdout: str, worker_out: dict) -> None:
        if command[0] == "resolve":
            text = (self.work / "cli_predictions.tsv").read_text(encoding="utf-8")
            if parse_prediction_file(text) != worker_out["predictions"]:
                self.problems.append("CLI predictions differ from the in-process ones")
        elif command[0] == "eval":
            if parse_eval_output(stdout) != self.gold_counts:
                self.problems.append(f"eval printed {parse_eval_output(stdout)}, "
                                     f"gold counting gives {self.gold_counts}")

    def round(self, first: bool) -> None:
        check = ["check"] if first else []
        if self.trace:
            plain, _ = self.worker(check)
            out, _ = self.worker(["trace"])
            self._sample("plain_pass_s", plain["pass_s"])
            self._sample("traced_pass_s", out["pass_s"])
            for name, (value, unit) in out["trace"].items():
                self.layer_samples.setdefault(name, [unit, []])[1].append(value)
        else:
            out, setup_s = self.worker(check)
            self._sample("setup_s", setup_s)
            self._sample("targets", out["targets"])
            self._sample("pass_s", out["pass_s"])
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.cli_sequence(out)

    def metrics(self) -> dict:
        med = statistics.median
        if self.trace:
            metrics = {name: {"value": (statistics.median_low if unit == "count" else med)(values),
                              "unit": unit}
                       for name, (unit, values) in self.layer_samples.items()}
            overhead = med(self.samples["traced_pass_s"]) / med(self.samples["plain_pass_s"])
            metrics["trace.overhead_pct"] = {"value": 100.0 * (overhead - 1.0), "unit": "%"}
            return metrics
        # The host's speed alternates between fast and slow phases lasting
        # seconds.  A median of a few rounds jumps between the two, so the
        # time-based figures are totals over the run: targets over pass
        # seconds, and the mean CLI sequence.  Set-up is the median.
        mean = statistics.fmean
        return {
            "setup_s": {"value": med(self.samples["setup_s"]), "unit": "s"},
            "targets_per_s": {"value": sum(self.samples["targets"])
                              / sum(self.samples["pass_s"]), "unit": "1/s"},
            "cli_wall_s": {"value": mean(self.samples["cli_wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": med(self.samples["peak_rss_mb"]), "unit": "MB"},
        }


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{seed}{'-quick' if quick else ''}"
    spec = workloads.build(workload, seed, ROOT, work, quick=quick)
    # Compile the package's bytecode and warm the file cache before timing.
    Child([sys.executable, "-c", "import bridgeref.cli"], work / "warm.out", work / "warm.err")
    state = Run(spec, work, trace)
    min_rounds = 1 if quick else MIN_ROUNDS
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while True:
        t = time.perf_counter()
        try:
            state.round(first=rounds == 0)
        except RuntimeError as exc:
            state.problems.append(str(exc))
            break
        rounds += 1
        last = time.perf_counter() - t
        if rounds >= min_rounds and time.perf_counter() + last > start + seconds:
            break
    print(f"{workload} seed {seed}: {rounds} rounds in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    for problem in state.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    result = {
        "correct": not state.problems and rounds > 0,
        "attempted": max(state.attempted, 1),
        "failed": state.failed,
        "metrics": state.metrics() if rounds else {},
    }
    record = dict(result, rounds=rounds, samples=state.samples,
                  layer_samples=state.layer_samples)
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                         encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="bridgeref benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload small, once untraced and once traced")
    args = parser.parse_args()
    missing = [p for p in ("src/bridgeref/__init__.py", "tests/randgen.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a bridgeref checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    if args.quick:
        ok = True
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                result = run(workload, args.seed, 0, trace, quick=True)
                ok = ok and result["correct"]
                print(json.dumps({"workload": workload, "trace": int(trace), **result}))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), False)
    if not result["metrics"]:
        print("error: no round completed, nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
