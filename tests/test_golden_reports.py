"""Pin the sha256 of every file each built-in scenario writes.

Each built-in runs at its pinned seed, and every output file's digest is
compared with `golden_reports.json` next to this file. The reports print
12 significant digits, so the same run's returned values are pinned too,
by the sha256 of their full `repr` under the key "values.repr". The benchmark's
three scenarios also run at seeds 1-3 against `golden_seed_reports.json`,
so an optimisation that keeps the pinned seed's reports but moves
another seed's fails too.

Those bytes depend on the BLAS kernel set that numpy's OpenBLAS picks
for the CPU: GEMM, SVD and solve round in another order on another
kernel. Each golden file records the kernel set it was made on
("blas_core", read from OpenBLAS itself) and each run's returned values.
On that kernel set the digests are compared exactly. On any other, or
where OpenBLAS does not say, `run.json` (which no BLAS call touches) is
compared exactly and each returned value within `VALUE_REL` of the
pinned one, or within `VALUE_ABS` for a roundoff-sized value.

A change that moves results on purpose regenerates both golden files with

    python tests/test_golden_reports.py

and names the moved files in CHANGES.md.
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import sesame.experiments as exp  # noqa: E402
import sesame.scenarios as scn  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_reports.json")
GOLDEN_SEEDS = Path(__file__).with_name("golden_seed_reports.json")
SEEDED_BUILTINS = ("dvs_flip", "quadratic_cpu", "t61like")
SEEDS = (1, 2, 3)
# Across OpenBLAS 0.3.31's SkylakeX, Haswell and Sandybridge kernel sets
# (OPENBLAS_CORETYPE, one thread), the built-ins at their pinned seeds and
# the seeded three at seeds 1-3 moved by at most 5.0e-12 relative (a
# dvs_flip window error of 5.8e-5) and, below 1e-13, by at most 1.9e-16
# (noiseless_linear's exact fits); each bound is 20 times or more that.
VALUE_REL = 1e-10
VALUE_ABS = 1e-14


def blas_core() -> str | None:
    """The kernel set of the OpenBLAS that numpy loaded, such as
    SkylakeX, or None where numpy bundles no OpenBLAS that reports it."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob(
            "lib*openblas*.so*")):
        for symbol in ("scipy_openblas_get_corename64_",
                       "openblas_get_corename"):
            try:
                corename = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def returned_values(result) -> list[float | None]:
    """Every float a run returned: each row's error of an ErrorReport,
    or each window error and the active model's beta of an
    AdaptationResult."""
    if isinstance(result, exp.ErrorReport):
        return [row.rms_rel_error for row in result.rows]
    return result.errors + result.table.active_model.beta.tolist()


def report_digests(name: str, out_dir: Path, seed: int | None = None
                   ) -> tuple[dict[str, str], list[float | None]]:
    """Run built-in `name`, re-seeded when `seed` is set, into `out_dir`:
    the sha256 of each file it wrote and of its returned values' reprs,
    and those values."""
    sc = scn.builtin(name)
    result = exp.run_scenario(sc if seed is None else sc.with_seed(seed),
                              str(out_dir))
    digests = {p.name: _sha256(p.read_bytes())
               for p in sorted(out_dir.iterdir())}
    values = returned_values(result)
    digests["values.repr"] = _sha256("\n".join(map(repr, values)).encode())
    return digests, values


def assert_pinned(golden: dict, want: dict[str, str], want_values: list,
                  got: dict[str, str], got_values: list, what: str) -> None:
    """`got` against the pinned digests on the golden file's kernel set;
    on another, `run.json` exactly and the values within the bounds."""
    if blas_core() == golden["blas_core"]:
        moved = sorted(f for f in want.keys() | got.keys()
                       if want.get(f) != got.get(f))
        assert not moved, (
            f"{what}: {', '.join(moved)} moved from the pinned digests; if "
            f"that is intended, rerun python tests/test_golden_reports.py")
        return
    assert got["run.json"] == want["run.json"], f"{what}: run.json moved"
    assert len(got_values) == len(want_values), f"{what}: value count"
    for i, (g, w) in enumerate(zip(got_values, want_values)):
        if g is None or w is None:
            assert g is w is None, f"{what}: value {i} is {g!r}, not {w!r}"
            continue
        assert abs(g - w) <= max(VALUE_REL * abs(w), VALUE_ABS), (
            f"{what}: value {i} moved from {w!r} to {g!r} on BLAS kernel "
            f"set {blas_core()} (pinned on {golden['blas_core']})")


def test_golden_file_covers_every_builtin():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["digests"]) == sorted(golden["values"]) == sorted(
        scn.BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(scn.BUILTIN_SCENARIOS))
def test_builtin_reports_match_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got, values = report_digests(name, tmp_path)
    assert_pinned(golden, golden["digests"][name], golden["values"][name],
                  got, values, name)


def test_seeded_golden_file_covers_the_seeded_builtins():
    golden = json.loads(GOLDEN_SEEDS.read_text())
    for part in ("digests", "values"):
        assert sorted(golden[part]) == sorted(SEEDED_BUILTINS)
        assert all(sorted(golden[part][name]) == [str(s) for s in SEEDS]
                   for name in golden[part])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SEEDED_BUILTINS)
def test_reseeded_reports_match_golden_digests(name, seed, tmp_path):
    golden = json.loads(GOLDEN_SEEDS.read_text())
    got, values = report_digests(name, tmp_path, seed)
    assert_pinned(golden, golden["digests"][name][str(seed)],
                  golden["values"][name][str(seed)], got, values,
                  f"{name} at seed {seed}")


def _write(path: Path, golden: dict) -> None:
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> None:
    core = blas_core()
    golden = {"blas_core": core, "digests": {}, "values": {}}
    for name in sorted(scn.BUILTIN_SCENARIOS):
        with tempfile.TemporaryDirectory() as out:
            golden["digests"][name], golden["values"][name] = (
                report_digests(name, Path(out)))
    _write(GOLDEN, golden)
    seeded = {"blas_core": core,
              "digests": {name: {} for name in SEEDED_BUILTINS},
              "values": {name: {} for name in SEEDED_BUILTINS}}
    for name in SEEDED_BUILTINS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                digests, values = report_digests(name, Path(out), seed)
            seeded["digests"][name][str(seed)] = digests
            seeded["values"][name][str(seed)] = values
    _write(GOLDEN_SEEDS, seeded)


if __name__ == "__main__":
    main()
