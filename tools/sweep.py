"""Every built-in scenario timed in two trees, interleaved, in process.

    python tools/sweep.py A B [--rounds N] [--reps M] [--out FILE]

A and B are git revisions of this repository (A the parent, B the
change) or checkout roots, set up as `tools/ab_pairs.py` sets them up:
each is unpacked or copied to `--workdir`/a or /b, two paths of one
length. One worker process per side imports the `sesame` package of its
own tree and stays alive for the whole sweep, so every timed run is
warm. Each round times every built-in on both sides, A first in even
rounds and B first in odd ones: a side's time for a built-in in a round
is the median of M runs of `run_scenario`, after one untimed run. Per
built-in the script prints each side's median over the rounds, the
median of the rounds' ratios B / A, the ratios' range, and the number of
rounds in which B was faster. Once the rounds are done it runs the
tier-1 suite once in each side's checkout, one side after the other,
and prints each side's wall time and pytest's summary line. With `--out`
it writes every round's times, the summary and the tier-1 runs as JSON.

The sweep is ungated: it reads a change's cost on the built-ins that no
benchmark workload runs. Run it with `OPENBLAS_NUM_THREADS=1`, as the
benchmark is measured; the workers inherit the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_pairs import checkout

# a worker reads "name reps" lines and answers each with the JSON list
# of its timed runs, in seconds
WORKER = """
import json, sys, time
import sesame
import sesame.experiments as exp
import sesame.scenarios as scn
print(json.dumps([sesame.__file__, sorted(scn.BUILTIN_SCENARIOS)]), flush=True)
for line in sys.stdin:
    name, reps = line.split()
    sc = scn.builtin(name)
    exp.run_scenario(sc)
    times = []
    for _ in range(int(reps)):
        t0 = time.perf_counter()
        exp.run_scenario(sc)
        times.append(time.perf_counter() - t0)
    print(json.dumps(times), flush=True)
"""


class Worker:
    """A persistent interpreter that imports the package under `root`."""

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER], cwd=root, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        package, self.builtins = self._read()
        if not Path(package).resolve().is_relative_to(root.resolve()):
            raise RuntimeError(f"{root}: imported sesame from {package}")

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def time(self, name: str, reps: int) -> float:
        """The median of `reps` warm runs of built-in `name`, in seconds."""
        self.proc.stdin.write(f"{name} {reps}\n")
        self.proc.stdin.flush()
        return statistics.median(self._read())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def tier1(root: Path) -> dict:
    """The tier-1 suite run once in the checkout `root`: its wall time
    in seconds, pytest's exit code and its last line of output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def summarize(a: list[float], b: list[float]) -> dict:
    ratios = [y / x for x, y in zip(a, b)]
    return {"a_median_s": statistics.median(a),
            "b_median_s": statistics.median(b),
            "ratio_median": statistics.median(ratios),
            "ratio_min": min(ratios), "ratio_max": max(ratios),
            "b_faster": sum(r < 1.0 for r in ratios), "rounds": len(ratios)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent: a git revision or a checkout root")
    parser.add_argument("b", help="change: a git revision or a checkout root")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--reps", type=int, default=15,
                        help="timed runs per built-in, side and round")
    parser.add_argument("--workdir", type=Path,
                        help="where the sides are unpacked or copied "
                             "(default: a temporary directory, removed at "
                             "the end)")
    parser.add_argument("--out", type=Path, help="write the JSON summary")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be >= 1")

    tmp = None
    if args.workdir is None:
        tmp = Path(tempfile.mkdtemp(prefix="sweep-"))
    workdir = args.workdir or tmp
    workers, roots = {}, {}
    try:
        for side, spec in (("a", args.a), ("b", args.b)):
            roots[side] = checkout(spec, workdir, side)
            workers[side] = Worker(roots[side])
        names = sorted(set(workers["a"].builtins) & set(workers["b"].builtins))
        times = {name: {"a": [], "b": []} for name in names}
        for i in range(args.rounds):
            for name in names:
                for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                    times[name][side].append(
                        workers[side].time(name, args.reps))
            print(f"round {i} done", file=sys.stderr, flush=True)
        result = {"a": args.a, "b": args.b, "rounds": args.rounds,
                  "reps": args.reps, "builtins": {}}
        for name in names:
            s = summarize(times[name]["a"], times[name]["b"])
            result["builtins"][name] = {"times_s": times[name], **s}
            print(f"{name}: a {s['a_median_s'] * 1e3:.3f} ms  "
                  f"b {s['b_median_s'] * 1e3:.3f} ms  "
                  f"ratio {s['ratio_median']:.3f} "
                  f"[{s['ratio_min']:.3f}, {s['ratio_max']:.3f}]  "
                  f"b faster {s['b_faster']}/{s['rounds']}")
        result["tier1"] = {}
        for side in ("a", "b"):
            run = result["tier1"][side] = tier1(roots[side])
            print(f"tier-1 {side}: {run['wall_s']:.1f} s  "
                  f"exit {run['exit_code']}  {run['summary']}")
        if args.out:
            args.out.write_text(json.dumps(result, indent=1) + "\n")
        return 0
    finally:
        for worker in workers.values():
            worker.close()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
