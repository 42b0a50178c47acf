"""Alternating A/B pairs of the benchmark across two checkouts.

    python tools/ab_pairs.py A B [--pairs N] [--seconds S] [--seed N]
                             [--workload NAME ...] [--out BENCH_<n>.json]

A and B are git revisions of this repository (A the parent, B the
change), each unpacked with `git archive`, or checkout roots given as
directories, each copied without its `.git`. Either way each side runs
from `--workdir`/a or `--workdir`/b, two paths of one length. Two trees
whose change does not touch the adaptation path read adaptation_dvs'
`run_s` 4.2% lower, a `gain` in 8 of 8 pairs, from directories whose
paths differed by one character, and 1.6% lower, `same`, from paths of
equal length. For
every workload, pair i runs `perfbench/run.py --trace 0` once on each
side, at `--seed` when given and else at the workload's own seed, A
first in even pairs and B first in odd ones. Every `__pycache__` and
`.perfbench_out` under the side's root is deleted before each run, and
each run is a fresh interpreter. For each end-to-end metric that
`BENCHMARK.json` declares, the script prints each side's median and
quartiles, how many pairs B wins in the metric's better direction, and a
verdict:

- `gain`: B wins at least 9 of 10 pairs (the same share of N) and its
  median beats A's by more than A's interquartile range and by more
  than the resolution floor, 1e-9 of A's median: a deterministic metric
  such as `acc_1hz` has an interquartile range of 0, so without the
  floor a roundoff move would read as a gain;
- `worse`: B's median is worse than A's by more than the metric's bound;
- `same` otherwise.

After `run_s` it prints each side's median unscaled wall time, the
harness's `unscaled host wall median`, and its median `attempted`
repetitions, which show a run of the calibration's low mode: a lower
`run_s` from a longer wall time in fewer repetitions. It also compares
each run's report digest with the other side's. With
`--out` it writes every run's metrics and the summary as JSON. The exit
code is 1 when a run fails or a metric is `worse`, else 0.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the least relative move of a median that can be a gain
RESOLUTION = 1e-9
# what precedes the median wall time of the timed runs, before the
# harness scales it by its calibration, on the `run_s` stdout line
UNSCALED = "unscaled host wall median "


def checkout(spec: str, workdir: Path, label: str) -> Path:
    """The root of side `spec` in `workdir`/`label`: a directory copied
    there without its `.git`, or a revision unpacked there with `git
    archive`."""
    path, dest = Path(spec), workdir / label
    if path.is_dir():
        shutil.copytree(path, dest, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".perfbench_out"))
        return dest
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def clear_caches(root: Path) -> None:
    for path in [*root.rglob("__pycache__"), root / ".perfbench_out"]:
        shutil.rmtree(path, ignore_errors=True)


def run_once(root: Path, workload: str, seconds: float,
             seed: int | None) -> dict:
    """One benchmark run: its last JSON line plus the report digest."""
    clear_caches(root)
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0", *seed_args],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "error": proc.stderr[-2000:]}
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    out["report_sha256"] = next((ln.split()[1] for ln in lines
                                 if ln.startswith("report_sha256 ")), None)
    out["unscaled_wall_s"] = next(
        (float(ln.split(UNSCALED)[1].split()[0]) for ln in lines
         if UNSCALED in ln), None)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(a: list[float], b: list[float], better: str,
              bound: float) -> dict:
    """Medians, quartiles, B's pair wins and the verdict of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    gain = sign * (qb[1] - qa[1])
    if (wins >= math.ceil(0.9 * len(a)) and gain > qa[2] - qa[0]
            and gain > RESOLUTION * abs(qa[1])):
        verdict = "gain"
    elif -gain > bound * abs(qa[1]):
        verdict = "worse"
    else:
        verdict = "same"
    return {"a": {"q1": qa[0], "median": qa[1], "q3": qa[2]},
            "b": {"q1": qb[0], "median": qb[1], "q3": qb[2]},
            "b_wins": wins, "pairs": len(a),
            "relative_change": ((qb[1] - qa[1]) / abs(qa[1])
                                if qa[1] else None),
            "verdict": verdict}


def host_medians(runs: dict) -> dict:
    """Each side's median unscaled wall time and median `attempted`: a
    run whose calibrated `run_s` reads low while its wall time reads
    high, in fewer repetitions, ran on a contended host."""
    return {side: {"unscaled_wall_s": statistics.median(
                       r["unscaled_wall_s"] for r in rs),
                   "attempted": statistics.median(r["attempted"] for r in rs)}
            for side, rs in runs.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="parent: a git revision or a checkout root")
    parser.add_argument("b", help="change: a git revision or a checkout root")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="perfbench --seconds of every run")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: every one)")
    parser.add_argument("--workdir", type=Path,
                        help="where the sides are unpacked or copied "
                             "(default: a temporary directory, removed at "
                             "the end)")
    parser.add_argument("--out", type=Path, help="write the JSON summary")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    tmp = None
    if args.workdir is None:
        tmp = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    workdir = args.workdir or tmp
    try:
        roots = {"a": checkout(args.a, workdir, "a"),
                 "b": checkout(args.b, workdir, "b")}
        bench = json.loads((roots["b"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        seed = "" if args.seed is None else f" --seed {args.seed}"
        result = {"a": args.a, "b": args.b, "pairs": args.pairs,
                  "command": (f"python3 perfbench/run.py --workload <name> "
                              f"--seconds {args.seconds:g} --trace 0{seed}"),
                  "workloads": {}}
        failed = False
        for workload in workloads:
            runs = {"a": [], "b": []}
            for i in range(args.pairs):
                for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                    run = run_once(roots[side], workload, args.seconds,
                                   args.seed)
                    runs[side].append(run)
                    print(f"{workload} pair {i} {side}: "
                          + (f"run_s {run['metrics']['run_s']:.4f}"
                             if run.get("correct") else "FAILED"),
                          file=sys.stderr, flush=True)
            ok = all(r.get("correct") for side in runs.values() for r in side)
            summary = {"runs": runs, "correct": ok, "metrics": {}}
            if ok:
                digests = {side: sorted({r["report_sha256"] for r in rs})
                           for side, rs in runs.items()}
                summary["report_sha256"] = digests
                print(f"{workload}: report digests "
                      + ("equal" if digests["a"] == digests["b"]
                         else f"a {digests['a']} b {digests['b']}"))
                for name, spec in metrics.items():
                    s = summarize([r["metrics"][name] for r in runs["a"]],
                                  [r["metrics"][name] for r in runs["b"]],
                                  spec["better"], spec["bound"])
                    summary["metrics"][name] = s
                    failed |= s["verdict"] == "worse"
                    print(f"{workload} {name}: a {s['a']['median']:.6g} "
                          f"[{s['a']['q1']:.6g}, {s['a']['q3']:.6g}]  "
                          f"b {s['b']['median']:.6g} "
                          f"[{s['b']['q1']:.6g}, {s['b']['q3']:.6g}]  "
                          f"b wins {s['b_wins']}/{s['pairs']}  "
                          f"{s['verdict']}")
                    if name == "run_s":
                        summary["host"] = host_medians(runs)
                        print(f"{workload} run_s host: " + "  ".join(
                            f"{side} unscaled wall {h['unscaled_wall_s']:.6g}"
                            f" s, attempted {h['attempted']:g}"
                            for side, h in summary["host"].items()))
            else:
                failed = True
                print(f"{workload}: a run failed")
            result["workloads"][workload] = summary
        if args.out:
            args.out.write_text(json.dumps(result, indent=1) + "\n")
        return 1 if failed else 0
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
