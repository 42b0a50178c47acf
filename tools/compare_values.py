"""Print every returned value that moved between two checkouts.

    python tools/compare_values.py A B [--seeds N]

A and B are checkout roots, each with the `sesame` package under `src/`.
Every built-in scenario runs on both sides at its pinned seed and, with
`--seeds N`, also re-seeded at 1..N. Each side runs in its own
interpreter, importing only its own `src/`. A value is a float a run
returns: each report row's RMS error (an ErrorReport), or each window
error and the active model's beta (an AdaptationResult), the values the
golden files pin by their `repr`. For each value that differs, one line
gives its scenario, seed and name, its `repr` on both sides and the
relative change (B - A) / |A|.

After that list, one line per scenario gives how many of its values
moved, the largest relative move among values whose magnitude on side A
is above 1e-13 (smaller ones are roundoff-sized errors of exact fits),
and the largest absolute move. With `--seeds N`, each anchor's min,
median and max over seeds 1..N follow, on both sides: the accuracy
(1 - RMS error) of `molded_l2` and of `molded_all_pcs` at 1 and 100 Hz on
t61like and n900like, and the rebuild count of each adaptation built-in.
`molded_all_pcs` falls below 0.8 on some seeds, which the pinned seeds
do not show. The exit code is 0 when nothing moved and 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# values this small are an exact fit's roundoff; their relative moves are
# noise, not a measure of the change
TINY = 1e-13
# scored as accuracy, 1 - RMS relative error, as the anchors are stated
ANCHOR_VALUES = tuple((scenario, f"{rate} Hz {variant}")
                      for variant in ("molded_l2", "molded_all_pcs")
                      for scenario in ("t61like", "n900like")
                      for rate in (1, 100))
REBUILD_ANCHORS = ("dvs_flip", "workload_switch", "adaptation_control")


def run_values(seeds: int) -> dict:
    """Every built-in's named returned values, keyed "scenario@seed", and
    each adaptation run's rebuild count under the same keys."""
    import sesame.experiments as exp
    import sesame.scenarios as scn

    out, rebuilds = {}, {}
    for name in sorted(scn.BUILTIN_SCENARIOS):
        sc = scn.builtin(name)
        for seed in (None, *range(1, seeds + 1)):
            run = sc if seed is None else sc.with_seed(seed)
            result = exp.run_scenario(run)
            if isinstance(result, exp.ErrorReport):
                values = [(f"{row.rate_hz:g} Hz {row.estimator}",
                           row.rms_rel_error) for row in result.rows]
            else:
                beta = result.table.active_model.beta.tolist()
                values = ([(f"window {i}", e)
                           for i, e in enumerate(result.errors)]
                          + [(f"beta[{j}]", b) for j, b in enumerate(beta)])
            run_key = f"{name}@{'pinned' if seed is None else seed}"
            out[run_key] = values
            if not isinstance(result, exp.ErrorReport):
                rebuilds[run_key] = result.rebuild_count
    return {"values": out, "rebuilds": rebuilds}


def side(root: Path, seeds: int) -> dict:
    """`run_values` in a fresh interpreter that imports `root`/src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", str(root / "src"),
         "--seeds", str(seeds)],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def moved(a: dict, b: dict) -> list[tuple[str, str, float | None,
                                         float | None]]:
    """(run, name, A's value, B's value) of every value whose `repr`
    differs between the sides."""
    out = []
    for run in sorted(a.keys() | b.keys()):
        va, vb = dict(a.get(run, [])), dict(b.get(run, []))
        for name in list(va) + [n for n in vb if n not in va]:
            x, y = va.get(name), vb.get(name)
            if repr(x) != repr(y):
                out.append((run, name, x, y))
    return out


def moved_line(run: str, name: str, x, y) -> str:
    rel = ("n/a" if x is None or y is None or x == 0
           else f"{(y - x) / abs(x):+.3g}")
    return f"{run} {name}: {x!r} -> {y!r} (rel {rel})"


def scenario_summaries(a: dict, moves: list) -> list[str]:
    """One line per scenario: its moved values, the largest relative move
    on values above `TINY` and the largest absolute move."""
    lines = []
    for scenario in sorted({run.split("@")[0] for run in a}):
        mine = [(x, y) for run, _, x, y in moves
                if run.split("@")[0] == scenario]
        pairs = [(x, y) for x, y in mine if x is not None and y is not None]
        total = sum(len(v) for run, v in a.items()
                    if run.split("@")[0] == scenario)
        rel = max((abs(y - x) / abs(x) for x, y in pairs if abs(x) > TINY),
                  default=0.0)
        absolute = max((abs(y - x) for x, y in pairs), default=0.0)
        lines.append(f"{scenario}: {len(mine)} of {total} moved, largest "
                     f"relative move {rel:.3g} (values above {TINY:g}), "
                     f"largest absolute move {absolute:.3g}")
    return lines


def spread(values: list[float]) -> str:
    return (f"{min(values):.6g} / {statistics.median(values):.6g} / "
            f"{max(values):.6g}")


def anchor_summaries(a: dict, b: dict, seeds: int) -> list[str]:
    """Each anchor's min / median / max over seeds 1..`seeds` on both
    sides."""
    runs = [str(seed) for seed in range(1, seeds + 1)]
    lines = []
    for scenario, name in ANCHOR_VALUES:
        sides = [[1.0 - dict(side["values"][f"{scenario}@{seed}"])[name]
                  for seed in runs] for side in (a, b)]
        lines.append(f"{scenario} {name} accuracy: A {spread(sides[0])}   "
                     f"B {spread(sides[1])}")
    for scenario in REBUILD_ANCHORS:
        sides = [[side["rebuilds"][f"{scenario}@{seed}"] for seed in runs]
                 for side in (a, b)]
        lines.append(f"{scenario} rebuilds: A {spread(sides[0])}   "
                     f"B {spread(sides[1])}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, nargs="?")
    parser.add_argument("b", type=Path, nargs="?")
    parser.add_argument("--seeds", type=int, default=0,
                        help="also run every built-in at seeds 1..N")
    parser.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seeds < 0:
        parser.error("--seeds must be >= 0")
    if args.dump:
        sys.path.insert(0, args.dump)
        json.dump(run_values(args.seeds), sys.stdout)
        return 0
    if args.a is None or args.b is None:
        parser.error("give two checkout roots A and B")
    for root in (args.a, args.b):
        if not (root / "src" / "sesame" / "__init__.py").is_file():
            parser.error(f"no sesame package under {root / 'src'}")
    a, b = side(args.a, args.seeds), side(args.b, args.seeds)
    moves = moved(a["values"], b["values"])
    total = sum(len(v) for v in a["values"].values())
    print("\n".join(moved_line(*move) for move in moves))
    print(f"{len(moves)} of {total} values moved over {len(a['values'])} runs")
    print("\n".join(scenario_summaries(a["values"], moves)))
    if args.seeds:
        print(f"anchors over seeds 1-{args.seeds}, min / median / max:")
        print("\n".join(anchor_summaries(a, b, args.seeds)))
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main())
