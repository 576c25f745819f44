"""`simulate`, `sweep` and `analyze` on the shipped templates, byte for byte against tests/golden.

For each template NAME the directory holds NAME.simulate.csv and the empty
NAME.simulate.stdout from
`blochdyn simulate --config NAME.json --out NAME.simulate.csv`,
NAME.sweep.csv and NAME.sweep.stdout from
`blochdyn sweep --config NAME.json --out NAME.sweep.csv`, and
NAME.analyze.stdout and NAME.analyze.json from
`blochdyn analyze --config NAME.json --out NAME.analyze.json`, with NAME.json
written by `blochdyn template NAME`. A change that moves emitted digits
regenerates them with those commands and records the largest deviation in
CHANGES.md.

The templates run only long segments. short_sliced_ladder.simulate.csv is
`blochdyn simulate --config short_sliced_ladder.json --out
short_sliced_ladder.simulate.csv` with BLAS on one thread: 48 slices of one or
two steps at N = 3, whose step operators propagate forms together.
"""

from pathlib import Path

import pytest

from blochdyn.cli import main
from blochdyn.config import template_names, template_text

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command, suffix", [("simulate", "csv"), ("sweep", "csv"),
                                             ("analyze", "json")])
@pytest.mark.parametrize("template", template_names())
def test_cli_output_matches_golden(tmp_path, capsys, template, command, suffix):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(template_text(template))
    out = tmp_path / ("out." + suffix)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    stem = "%s.%s" % (template, command)
    assert captured.out.encode() == (GOLDEN / (stem + ".stdout")).read_bytes()
    assert out.read_bytes() == (GOLDEN / ("%s.%s" % (stem, suffix))).read_bytes()


def test_short_sliced_simulate_matches_golden(tmp_path, capsys):
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(["simulate", "--config", str(GOLDEN / "short_sliced_ladder.json"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / "short_sliced_ladder.simulate.csv").read_bytes()
