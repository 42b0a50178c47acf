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
relative change (B - A) / |A|. The exit code is 0 when nothing moved and
1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run_values(seeds: int) -> dict[str, list[tuple[str, float | None]]]:
    """Every built-in's named returned values, keyed "scenario@seed"."""
    import sesame.experiments as exp
    import sesame.scenarios as scn

    out = {}
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
            out[f"{name}@{'pinned' if seed is None else seed}"] = values
    return out


def side(root: Path, seeds: int) -> dict:
    """`run_values` in a fresh interpreter that imports `root`/src."""
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", str(root / "src"),
         "--seeds", str(seeds)],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def moved(a: dict, b: dict) -> list[str]:
    lines = []
    for run in sorted(a.keys() | b.keys()):
        va, vb = dict(a.get(run, [])), dict(b.get(run, []))
        for name in list(va) + [n for n in vb if n not in va]:
            x, y = va.get(name), vb.get(name)
            if repr(x) == repr(y):
                continue
            rel = ("n/a" if x is None or y is None or x == 0
                   else f"{(y - x) / abs(x):+.3g}")
            lines.append(f"{run} {name}: {x!r} -> {y!r} (rel {rel})")
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
    lines = moved(a, b)
    total = sum(len(v) for v in a.values())
    print("\n".join(lines))
    print(f"{len(lines)} of {total} values moved over {len(a)} runs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
