"""Golden CLI outputs: one target per JSON tag.

Each tests/golden/<tag>.json holds a target and the JSON that
`ionpulse synthesize --target T --out S`, `ionpulse simulate --schedule S`
and `ionpulse verify --schedule S --target T` print for it.  Outputs
must keep the same keys, the same strings and numbers within 1e-12
relative.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from ionpulse.cli import main
from ionpulse.synthesis import _VARIANTS

GOLDEN = Path(__file__).parent / "golden"
TAGS = sorted(p.stem for p in GOLDEN.glob("*.json"))


def _stdout_json(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return json.loads(buf.getvalue())


def _outputs(target: dict, workdir: Path) -> dict:
    """stdout of synthesize, simulate and verify on target, parsed."""
    target_path, schedule_path = workdir / "target.json", workdir / "schedule.json"
    target_path.write_text(json.dumps(target))
    return {
        "synthesize": _stdout_json(
            ["synthesize", "--target", str(target_path), "--out", str(schedule_path)]
        ),
        "simulate": _stdout_json(["simulate", "--schedule", str(schedule_path)]),
        "verify": _stdout_json(
            ["verify", "--schedule", str(schedule_path), "--target", str(target_path)]
        ),
    }


def _assert_matches(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want, path
    else:
        assert not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)


def test_every_tag_has_a_fixture():
    assert TAGS == sorted(_VARIANTS)


@pytest.mark.parametrize("tag", TAGS)
def test_cli_output_matches_golden(tag, tmp_path):
    fixture = json.loads((GOLDEN / f"{tag}.json").read_text())
    got = _outputs(fixture["target"], tmp_path)
    for name in ("synthesize", "simulate", "verify"):
        _assert_matches(got[name], fixture[name], name)

