"""One admission rule for amplitude rows, checked at every entry point.

propagate, steady_state, steady_state_sweep, total_generator and a config
run through the CLI all weight the same stack of generator pieces by rows of
field amplitudes. Each must refuse a row of the wrong width, a NaN, an inf
and an amplitude whose generator overflows with an InputError that names the
row (exit 2 through the CLI), before any work: no warning, and nothing else
on stderr, such as LAPACK's complaints about non-finite input.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from blochdyn.cli import main
from blochdyn.config import template_text
from blochdyn.dynamics import propagate, steady_state, steady_state_sweep
from blochdyn.errors import InputError
from blochdyn.liouville import total_generator
from test_cli import load_template

# the defect, the bad amplitude row on the two-control quasi_spin_qubit, and
# the reason the message gives for it. Both overflowing amplitudes are needed
# to overflow the complex L(f) of total_generator; either alone overflows the
# affine G(f) that the other entry points weight
DEFECTS = {
    "width": ((0.5,), "expected 2 field amplitudes, got 1"),
    "nan": ((float("nan"), 0.0), "field amplitudes must be finite"),
    "inf": ((0.0, float("inf")), "field amplitudes must be finite"),
    "overflow": ((1.5e308, 1.5e308), "field amplitudes overflow the generator"),
}
AMPLITUDES = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]


def _swept(row):
    """(control, amplitude, sweep list) that puts the row's one nonzero amplitude in a sweep."""
    control = int(row[0] == 0.0)  # NaN counts as nonzero
    return control, row[control], AMPLITUDES[:3] + [row[control]] + AMPLITUDES[3:]


def _propagate(cfg, row):
    # the bad row is the second segment. ControlField refuses non-finite
    # values itself, so a stand-in with its attributes reaches propagate
    segments = ((1.0, np.zeros(len(row))), (1.0, np.array(row)))
    field = SimpleNamespace(segments=segments, kind=cfg.field.kind, total_duration=2.0)
    propagate(cfg.system, cfg.dissipation, field, cfg.rho0, sample_dt=0.1)


def _sweep(cfg, row):
    control, _, amplitudes = _swept(row)
    steady_state_sweep(cfg.system, cfg.dissipation, control, amplitudes)


ENTRY_POINTS = {
    "propagate": _propagate,
    "steady_state": lambda cfg, row: steady_state(cfg.system, cfg.dissipation, row),
    "total_generator": lambda cfg, row: total_generator(cfg.system, cfg.dissipation, row),
    "steady_state_sweep": _sweep,
}


def _row_name(entry, row):
    # every segment of a field carries the same number of amplitudes, so a
    # width error names the first
    if entry == "propagate":
        return "segment %d" % (len(row) == 2)
    if entry == "steady_state_sweep":
        return "amplitude %g" % _swept(row)[1]
    return "f"


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_library_entry_point_refuses_the_row_by_name(capfd, entry, defect):
    row, reason = DEFECTS[defect]
    if entry == "steady_state_sweep" and defect == "width":
        pytest.skip("a sweep builds its own rows, one amplitude each")
    with pytest.raises(InputError) as err:
        ENTRY_POINTS[entry](load_template("quasi_spin_qubit"), row)
    assert str(err.value) == "%s: %s" % (_row_name(entry, row), reason)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("defect", DEFECTS)
def test_a_config_through_the_cli_refuses_the_row_by_name(tmp_path, capfd, defect):
    # JSON has no NaN or Infinity, so non-finite amplitudes enter through
    # sweep --amplitudes; the others sit in the config's second field segment
    row, reason = DEFECTS[defect]
    doc = json.loads(template_text("quasi_spin_qubit"))
    out = ["--out", str(tmp_path / "x.csv")]
    if defect in ("nan", "inf"):
        control, amplitude, amplitudes = _swept(row)
        runs = [["sweep", "--control", str(control), "--amplitudes",
                 ",".join(map(str, amplitudes))]]
        name = "amplitude %g" % amplitude
    else:
        segments = doc["field"]["segments"]
        for segment in segments:  # ControlField wants one width in every segment
            segment["values"] = [0.0] * len(row)
        segments[1]["values"] = list(row)
        runs = [["simulate"], ["analyze"], ["sweep"]]
        name = "field.segments[%d]" % (len(row) == 2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    for argv in runs:
        assert main(argv + ["--config", str(path)] + out) == 2
        assert capfd.readouterr() == ("", "config error: %s: %s\n" % (name, reason))
        assert not (tmp_path / "x.csv").exists()
