"""List the lines of the `sesame` package that no built-in scenario reaches.

    python tools/reach.py [ROOT]

ROOT is a checkout root with the package under `src/` (default: this
checkout). Every built-in scenario runs at its pinned seed through
`run_scenario`, writing its reports to a temporary directory, under a
`sys.settrace` line tracer that is installed before the package is
imported, so module-level lines count too. A line is executable when one
of its module's code objects lists it in `co_lines`. For each module one
line gives its executable and unreached line counts and the unreached
lines as ranges; the last line gives the totals. The exit code is 0.
"""

import argparse
import sys
import tempfile
from pathlib import Path


def executable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from `path` maps to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """`[1, 2, 3, 7]` as "1-3,7"."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ",".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    package = (args.root / "src" / "sesame").resolve()
    if not (package / "__init__.py").is_file():
        parser.error(f"no sesame package under {args.root / 'src'}")
    prefix = str(package) + "/"
    reached: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = reached.setdefault(name, set())
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(package.parent))
    sys.settrace(trace)
    try:
        import sesame.experiments as exp
        import sesame.scenarios as scn

        with tempfile.TemporaryDirectory() as out:
            for name in sorted(scn.BUILTIN_SCENARIOS):
                exp.run_scenario(scn.builtin(name), str(Path(out) / name))
    finally:
        sys.settrace(None)

    n_lines = n_missed = 0
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(str(path), set()))
        n_lines += len(lines)
        n_missed += len(missed)
        print(f"{path.name}: {len(lines)} lines, {len(missed)} unreached: "
              f"{ranges(missed)}")
    print(f"total: {n_lines} executable lines, {n_missed} unreached by the "
          f"{len(scn.BUILTIN_SCENARIOS)} built-ins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
