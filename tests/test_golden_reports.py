"""Pin the sha256 of every file each built-in scenario writes.

Each built-in runs at its pinned seed, and every output file's digest is
compared with `golden_reports.json` next to this file. A change that
moves results on purpose regenerates the golden file with

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


def report_digests(name: str, out_dir: Path) -> dict[str, str]:
    """Run built-in `name` into `out_dir`; sha256 of each file it wrote."""
    exp.run_scenario(scn.builtin(name), str(out_dir))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


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


def main() -> None:
    golden = {}
    for name in sorted(scn.BUILTIN_SCENARIOS):
        with tempfile.TemporaryDirectory() as out:
            golden[name] = report_digests(name, Path(out))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
