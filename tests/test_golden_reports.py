"""Pin the sha256 of every file each built-in scenario writes.

Each built-in runs at its pinned seed, and every output file's digest is
compared with `golden_reports.json` next to this file. The reports print
12 significant digits, so the same run's returned values are pinned too,
by the sha256 of their full `repr` under the key "values.repr". The benchmark's
three scenarios also run at seeds 1-3 against `golden_seed_reports.json`,
so an optimisation that keeps the pinned seed's reports but moves
another seed's fails too. A change that moves results on purpose
regenerates both golden files with

    python tests/test_golden_reports.py

and names the moved files in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import sesame.experiments as exp  # noqa: E402
import sesame.scenarios as scn  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_reports.json")
GOLDEN_SEEDS = Path(__file__).with_name("golden_seed_reports.json")
SEEDED_BUILTINS = ("dvs_flip", "quadratic_cpu", "t61like")
SEEDS = (1, 2, 3)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def value_reprs(result) -> str:
    """`repr` of every float a run returned, one per line: each row's
    error of an ErrorReport, or each window error and the active model's
    beta of an AdaptationResult."""
    if isinstance(result, exp.ErrorReport):
        values = [row.rms_rel_error for row in result.rows]
    else:
        values = result.errors + result.table.active_model.beta.tolist()
    return "\n".join(map(repr, values))


def report_digests(name: str, out_dir: Path,
                   seed: int | None = None) -> dict[str, str]:
    """Run built-in `name`, re-seeded when `seed` is set, into `out_dir`;
    sha256 of each file it wrote and of its returned values' reprs."""
    sc = scn.builtin(name)
    result = exp.run_scenario(sc if seed is None else sc.with_seed(seed),
                              str(out_dir))
    digests = {p.name: _sha256(p.read_bytes())
               for p in sorted(out_dir.iterdir())}
    digests["values.repr"] = _sha256(value_reprs(result).encode())
    return digests


def test_golden_file_covers_every_builtin():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        scn.BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(scn.BUILTIN_SCENARIOS))
def test_builtin_reports_match_golden_digests(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = report_digests(name, tmp_path)
    moved = sorted(f for f in want.keys() | got.keys()
                   if want.get(f) != got.get(f))
    assert not moved, (
        f"{name}: {', '.join(moved)} moved from the pinned digests; if that "
        f"is intended, rerun python tests/test_golden_reports.py")


def test_seeded_golden_file_covers_the_seeded_builtins():
    golden = json.loads(GOLDEN_SEEDS.read_text())
    assert sorted(golden) == sorted(SEEDED_BUILTINS)
    assert all(sorted(golden[name]) == [str(s) for s in SEEDS]
               for name in golden)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SEEDED_BUILTINS)
def test_reseeded_reports_match_golden_digests(name, seed, tmp_path):
    want = json.loads(GOLDEN_SEEDS.read_text())[name][str(seed)]
    got = report_digests(name, tmp_path, seed)
    moved = sorted(f for f in want.keys() | got.keys()
                   if want.get(f) != got.get(f))
    assert not moved, (
        f"{name} at seed {seed}: {', '.join(moved)} moved from the pinned "
        f"digests; if that is intended, rerun python "
        f"tests/test_golden_reports.py")


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> None:
    golden = {}
    for name in sorted(scn.BUILTIN_SCENARIOS):
        with tempfile.TemporaryDirectory() as out:
            golden[name] = report_digests(name, Path(out))
    _write(GOLDEN, golden)
    seeded = {name: {} for name in SEEDED_BUILTINS}
    for name in SEEDED_BUILTINS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                seeded[name][str(seed)] = report_digests(name, Path(out), seed)
    _write(GOLDEN_SEEDS, seeded)


if __name__ == "__main__":
    main()
