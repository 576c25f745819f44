"""Config parsing and command-line interface tests (in-process, except the import probes)."""

import copy
import dataclasses
import errno
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from blochdyn import algebra, bloch, cli, config, dynamics, liouville
from blochdyn.cli import _write_table, main
from blochdyn.config import (
    _schema_errors,
    load_config,
    parse_config,
    template_names,
    template_text,
)
from blochdyn.dynamics import propagate
from blochdyn.errors import ConfigError, PhysicsError, UnphysicalStateError
from blochdyn.model import ControlSystem

BASE = {
    "system": {
        "levels": 2,
        "energies": [0.0, 1.0],
        "dipoles": [
            {"levels": [0, 1], "moment": 1.0, "axis": "x"},
            {"levels": [0, 1], "moment": 1.0, "axis": "y"},
        ],
    },
    "dissipation": {
        "dephasing": [[0.0, 0.3], [0.3, 0.0]],
        "relaxation": [[0.0, 0.2], [0.05, 0.0]],
    },
    "field": {
        "kind": "piecewise",
        "segments": [
            {"duration": 1.0, "values": [0.5, 0.0]},
            {"duration": 1.0, "values": [0.0, 0.0]},
        ],
    },
    "initial": {"pure": [[0.0, 0.0], [1.0, 0.0]]},
}


def make_doc(**overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_minimal_config():
    cfg = parse_config(make_doc())
    assert cfg.system.dim == 2
    assert cfg.field.total_duration == pytest.approx(2.0)
    assert cfg.duration == pytest.approx(2.0)  # defaults to the field length
    assert np.allclose(cfg.rho0, np.diag([0.0, 1.0]))


def test_parse_rejects_missing_section():
    with pytest.raises(ConfigError, match="initial"):
        parse_config(make_doc(initial=None))


def test_parse_rejects_unknown_keys():
    doc = make_doc()
    doc["system"]["extra"] = 1
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_rejects_mismatched_rate_matrix():
    doc = make_doc()
    doc["dissipation"]["dephasing"] = [[0.0, 0.1, 0.0]] * 3
    with pytest.raises(ConfigError, match="rate matrices"):
        parse_config(doc)
    doc = make_doc()
    three = [[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1, 0.1, 0.0]]
    doc["dissipation"] = {"dephasing": three, "relaxation": three}
    with pytest.raises(ConfigError, match="levels"):
        parse_config(doc)


def test_parse_rejects_field_width_mismatch():
    doc = make_doc()
    doc["field"]["segments"][0]["values"] = [0.5]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_rejects_run_duration_beyond_field():
    doc = make_doc(run={"duration": 5.0})
    with pytest.raises(ConfigError, match="duration"):
        parse_config(doc)


def test_parse_rejects_sweep_control_out_of_range():
    doc = make_doc(sweep={"control": 7, "amplitudes": [0, 1, 2, 3, 4, 5]})
    with pytest.raises(ConfigError, match="control"):
        parse_config(doc)


def test_parse_unphysical_density_raises_physics_error():
    doc = make_doc(
        initial={"density": [[[1.4, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.4, 0.0]]]}
    )
    with pytest.raises(UnphysicalStateError):
        parse_config(doc)


def test_parse_coherence_initial_state():
    doc = make_doc(initial={"coherence": {"bloch": [0.3, 0.0, 0.4]}})
    cfg = parse_config(doc)
    assert abs(np.trace(cfg.rho0) - 1.0) < 1e-12


def _nodes(node, path=()):
    """(path, value) of every node of a decoded document, the root first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value=None, drop=False):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _subschema(schema, path):
    """The schema that applies at path, following properties, items and $ref."""
    node = schema
    for key in path:
        if "$ref" in node:
            node = schema["definitions"][node["$ref"].split("/")[-1]]
        node = node["items"] if isinstance(key, int) else node["properties"][key]
    if "$ref" in node:
        node = schema["definitions"][node["$ref"].split("/")[-1]]
    return node


def _mutations(doc, schema):
    """Documents one edit away from doc, valid or not."""
    for path, node in list(_nodes(doc)):
        for bad in ("text", True, None, [[0.5, 1.0]]):
            yield _replaced(doc, path, bad)
        if isinstance(node, dict):
            for key in node:
                yield _replaced(doc, path + (key,), drop=True)
            yield _replaced(doc, path + ("unexpected",), 1.0)
        sub = _subschema(schema, path)
        for keyword, step in (("minimum", -1), ("exclusiveMinimum", -1), ("maximum", 1)):
            if keyword in sub:
                bound = sub[keyword]
                for value in (bound, float(bound), bound + 0.5, bound - 0.5, bound + step):
                    yield _replaced(doc, path, value)
    initial = doc["initial"]
    yield _replaced(doc, ("initial",), {})
    other = "coherence" if "pure" in initial else "pure"
    yield _replaced(doc, ("initial", other), {"pure": [[1.0, 0.0], [0.0, 0.0]],
                                              "coherence": {"bloch": [0.0, 0.0, 0.0]}}[other])


def _corpus_bases():
    docs = [json.loads(template_text(name)) for name in template_names()]
    # every bounded field present at least once
    extra = copy.deepcopy(docs[0])
    extra["system"]["hbar"] = 1.0
    extra["run"]["duration"] = 1.0
    return docs + [extra]


def test_schema_walker_agrees_with_jsonschema():
    schema = config._schema()
    validator = jsonschema.Draft7Validator(schema)
    seen = {True: 0, False: 0}
    for base in _corpus_bases():
        assert not list(_schema_errors(base, schema, schema))
        for doc in _mutations(base, schema):
            ours = [path for path, _ in _schema_errors(doc, schema, schema)]
            theirs = {tuple(err.absolute_path) for err in validator.iter_errors(doc)}
            assert bool(ours) == bool(theirs), (doc, ours, theirs)
            assert set(ours) <= theirs, (doc, ours, theirs)
            seen[bool(ours)] += 1
            # whatever the schema lets through, lowering gives a typed error or a run
            try:
                parse_config(doc)
            except (ConfigError, PhysicsError) as exc:
                assert not ours or str(exc).startswith("config field ")
            else:
                assert not ours
    assert min(seen.values()) > 50, seen


# what the walker implements, and the annotations it ignores
HANDLED_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items",
                    "minItems", "maxItems", "minProperties", "maxProperties", "enum",
                    "minimum", "maximum", "exclusiveMinimum", "$ref"}
ANNOTATIONS = {"description", "default", "title", "$schema", "definitions"}


def test_schema_uses_only_handled_keywords():
    schema = config._schema()
    pending = [schema] + list(schema["definitions"].values())
    while pending:
        node = pending.pop()
        assert set(node) <= HANDLED_KEYWORDS | ANNOTATIONS, set(node) - HANDLED_KEYWORDS
        assert node.get("type", "object") in config._TYPES
        assert node.get("additionalProperties", False) is False
        assert node.get("$ref", "#/definitions/").startswith("#/definitions/")
        pending += node.get("properties", {}).values()
        if "items" in node:
            assert isinstance(node["items"], dict)
            pending.append(node["items"])


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
def test_integral_floats_behave_like_integers(tmp_path, capsys, command):
    # draft-07 counts 2.0 as an integer, so the schema lets these through
    doc = json.loads(template_text("three_level_ladder"))
    floats = copy.deepcopy(doc)
    floats["system"]["levels"] = 3.0
    for dipole in floats["system"]["dipoles"]:
        dipole["levels"] = [float(level) for level in dipole["levels"]]
    floats["sweep"]["control"] = float(floats["sweep"]["control"])
    outputs = []
    for name, d in (("int", doc), ("float", floats)):
        out = tmp_path / name
        assert main([command, "--config", write_config(tmp_path, d, name + ".json"),
                     "--out", str(out)]) == 0
        outputs.append((capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]


def _overflowing_energies(doc):
    doc["system"]["energies"] = [1e308, -1e308]


def _overflowing_amplitude(doc):
    doc["field"]["segments"][0]["values"][0] = 1.5e308


@pytest.mark.parametrize("edit", [_overflowing_energies, _overflowing_amplitude],
                         ids=["energies", "amplitude"])
@pytest.mark.parametrize("kind", ["piecewise", "sampled"])
def test_overflow_is_a_config_error_before_any_step(tmp_path, capsys, edit, kind):
    # finite numbers whose generator overflows: exit 2 with no traceback or
    # warning, for every command and either propagation route
    doc = json.loads(template_text("quasi_spin_qubit"))
    doc["field"]["kind"] = kind
    edit(doc)
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "x.out"
    for command in ("simulate", "analyze", "sweep"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and "overflow" in captured.err
        assert "Warning" not in captured.err and captured.out == ""
        assert not out.exists()


def test_overflowing_sweep_amplitude_is_a_config_error(tmp_path, capsys):
    # from the config's sweep list (for every command, as for segments) and
    # from --amplitudes: exit 2 naming the amplitude, before any SVD or solve
    doc = json.loads(template_text("quasi_spin_qubit"))
    doc["sweep"]["amplitudes"][2] = 1.5e308
    out = tmp_path / "x.out"
    for command in ("simulate", "analyze", "sweep"):
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: sweep.amplitudes[2]: field amplitudes overflow "
                                "the generator\n")
        assert captured.out == ""
    cfg_path = write_config(tmp_path, json.loads(template_text("quasi_spin_qubit")))
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--amplitudes=0,1,2,-1.5e308,3,4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: amplitude -1.5e+308: field amplitudes overflow the "
                            "generator\n")
    assert captured.out == "" and not out.exists()


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"system": }')
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def load_template(name):
    """A shipped template lowered onto a RunConfig, as --config reads the template's text."""
    return parse_config(json.loads(template_text(name)))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/nowhere.json")


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_simulate_takes_pure_amplitudes_whose_norm_overflows_or_underflows(tmp_path, scale):
    # the norm of (s, s) once overflowed to a zero state (exit 3, "trace
    # offset 1") or underflowed to zero (exit 2, "zero amplitude vector")
    doc = json.loads(template_text("driven_qubit"))
    tables = []
    for s in (scale, 1.0):
        doc["initial"] = {"pure": [[s, 0.0], [s, 0.0]]}
        out = tmp_path / ("%g.csv" % s)
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_templates_ship_and_parse():
    names = template_names()
    assert len(names) == 3
    for name in names:
        cfg = load_template(name)
        assert cfg.system.dim in (2, 3)
        json.loads(template_text(name))  # text form is valid JSON


def test_template_round_trip(tmp_path):
    for name in template_names():
        out = tmp_path / ("%s.json" % name)
        assert main(["template", name, "--out", str(out)]) == 0
        assert out.read_bytes() == template_text(name).encode()
        load_config(str(out))


def test_template_lists_choices_on_stdout(capsys):
    assert main(["template", template_names()[0]]) == 0
    text = capsys.readouterr().out
    json.loads(text)


def test_simulate_writes_deterministic_csv(tmp_path):
    cfg_path = write_config(tmp_path, make_doc(run={"outputs": ["bloch", "purity"]}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    header = [h for h in lines if not h.startswith("#")][0]
    cols = header.split(",")
    assert cols[0] == "time"
    assert "x" in cols and "purity" in cols
    first = [h for h in lines if not h.startswith("#")][1]
    assert float(first.split(",")[0]) == 0.0


@pytest.mark.parametrize("outputs", [["bloch"], ["bloch", "purity"], ["purity"],
                                     ["bloch", "purity", "rho"]])
def test_simulate_builds_the_density_stack_only_for_a_rho_output(tmp_path, monkeypatch, outputs):
    # purity comes from the coordinates and the dimension from the initial
    # state; only the rho columns read Trajectory.rho
    built = []
    rebuild = dynamics.density_from_coordinates

    def counted(u, dim):
        built.append(np.shape(u))
        return rebuild(u, dim)

    monkeypatch.setattr(dynamics, "density_from_coordinates", counted)
    doc = json.loads(template_text("three_level_ladder"))
    doc["run"]["outputs"] = outputs
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    rows = len(out.read_text().splitlines()) - 1
    assert built == ([(rows, 9)] if "rho" in outputs else [])


def _per_cell_csv(header, rows):
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in rows)


def test_write_table_matches_per_cell_format(tmp_path):
    rows = np.column_stack([
        np.random.default_rng(7).standard_normal(5),
        [-0.0, 0.0, 1e-300, 1e300, -1e-300],
        [1.0, -2.0, 1e16, 2.0 ** 53, 123456789.0],
    ])
    out = tmp_path / "t.csv"
    _write_table(str(out), ["first", "second"], ["a", "b", "c"], rows)
    expected = "# first\n# second\n" + _per_cell_csv(["a", "b", "c"], rows)
    assert out.read_bytes() == expected.encode()


def test_simulate_rho_table_matches_per_cell_format(tmp_path):
    doc = json.loads(template_text("three_level_ladder"))
    doc["run"]["outputs"] = ["bloch", "purity", "rho"]
    out = tmp_path / "rho.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    cfg = parse_config(doc)
    traj = propagate(cfg.system, cfg.dissipation, cfg.field, cfg.rho0,
                     sample_dt=cfg.sample_dt, duration=cfg.duration)
    header = ["time"] + ["v%d" % a for a in range(1, 9)] + ["trace_part", "purity"]
    columns = [traj.times, *traj.bloch.T, traj.trace_part, traj.purities()]
    for i in range(3):
        for j in range(3):
            header += ["rho%d%d_re" % (i, j), "rho%d%d_im" % (i, j)]
            columns += [traj.rho[:, i, j].real, traj.rho[:, i, j].imag]
    assert out.read_bytes() == _per_cell_csv(header, np.column_stack(columns)).encode()


# Runs blochdyn.cli.main(argv) in a fresh interpreter and reports on stderr
# which of scipy and jsonschema it left in sys.modules. With "block" as the
# first argument, a sys.meta_path finder refuses both imports beforehand.
_IMPORT_PROBE = """
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "jsonschema"):
            raise ImportError("blocked: " + name)

if sys.argv[1] == "block":
    sys.meta_path.insert(0, Block())
import blochdyn.cli
if sys.argv[2:]:
    assert blochdyn.cli.main(sys.argv[2:]) == 0
sys.stderr.write(" ".join(m for m in ("scipy", "jsonschema") if m in sys.modules))
"""


def _probe(argv, block=False):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, "block" if block else "-"] + argv,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_importing_the_cli_loads_neither_scipy_nor_jsonschema():
    assert _probe([]).stderr == b""


@pytest.mark.parametrize("command, template", [("template", "driven_qubit")] + [
    (command, name) for name in template_names() for command in ("simulate", "analyze", "sweep")])
def test_commands_need_neither_scipy_nor_jsonschema(tmp_path, command, template):
    # an unblocked run loads neither, and a run with both imports refused
    # writes the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(template_text(template))
    results = []
    for block in (False, True):
        out = tmp_path / ("blocked" if block else "free")
        if command == "template":
            argv = ["template", template, "--out", str(out)]
        else:
            argv = [command, "--config", str(cfg), "--out", str(out)]
        proc = _probe(argv, block)
        assert proc.stderr == b""
        results.append((proc.stdout, out.read_bytes()))
    assert results[0] == results[1]


def test_simulate_sample_dt_flag(tmp_path):
    cfg_path = write_config(tmp_path, make_doc())
    out = tmp_path / "fine.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(out),
                 "--sample-dt", "0.5"]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) - 1 == 5  # 0.0, 0.5, 1.0, 1.5, 2.0


def test_sample_dt_past_the_duration_samples_every_segment_end(tmp_path):
    doc = json.loads(template_text("driven_qubit"))
    doc["run"]["sample_dt"] = 1e300
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 2.0, 4.0, 8.0]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_sample_dt_flag_must_be_positive_and_finite(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, make_doc()), "--out", str(out),
                 "--sample-dt", value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --sample-dt must be positive and finite")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_grid_too_large_to_hold_is_a_config_error(tmp_path, capsys):
    # 8e9 samples of driven_qubit: refused before the first step, not run
    doc = json.loads(template_text("driven_qubit"))
    doc["run"]["sample_dt"] = 1e-9
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: sample_dt 1e-09 gives 8e+09 samples")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind, dephasing, relaxation, duration, message", [
    # both once ended in a traceback: expm's "matrix exponential of non-finite
    # input", and an overflow in the RK4 step check
    ("piecewise", 1e307, 1.0, 1e3,
     "segment 0: generator phase inf passes the 1e+10 bound"),
    ("sampled", 1e303, 1.0, 1e8,
     "segment 0: generator phase inf passes the 1e+10 bound"),
    # once a RuntimeWarning, then "field amplitudes overflow the generator"
    ("piecewise", 0.0, 1.7e308, 1.0, "generator pieces overflow: Hamiltonian or rates too large"),
], ids=["exact-step", "rk4-step", "affine-images"])
def test_rates_whose_steps_overflow_are_a_config_error(tmp_path, capsys, kind, dephasing,
                                                       relaxation, duration, message):
    doc = {"system": {"levels": 2, "energies": [0.0, 1.0], "dipoles": []},
           "dissipation": {"dephasing": [[0.0, dephasing], [dephasing, 0.0]],
                           "relaxation": [[0.0, relaxation], [0.0, 0.0]]},
           "field": {"kind": kind, "segments": [{"duration": duration, "values": []}]},
           "initial": {"pure": [[1.0, 0.0], [1.0, 0.0]]}, "run": {"sample_dt": duration}}
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: " + message)
    assert captured.out == "" and not out.exists()


def test_analyze_report_content(tmp_path, capsys):
    cfg_path = write_config(tmp_path, make_doc())
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["support_overlap"] == []
    assert report["cancellation_feasible"] is False
    assert report["hamiltonian_algebra_dim"] == 4
    assert report["affine_closure_dim"] == 12
    assert report["homogeneous_dim"] == 9
    assert report["translation_dim"] == 3
    assert report["spectrum"]["forward_bounded"] is True
    assert report["spectrum"]["zero_modes"] == 1
    zstar = (0.2 - 0.05) / (0.2 + 0.05)
    assert report["steady_state"]["bloch"][2] == pytest.approx(zstar)


def test_analyze_counts_the_zero_mode_at_any_rate_scale(tmp_path, capsys):
    # energies, moments and rates of order 1e6 leave the zero eigenvalue at
    # ~1e-11, which is zero relative to the generator's entries
    doc = json.loads(template_text("three_level_ladder"))
    doc["system"]["energies"] = [1e6 * e for e in doc["system"]["energies"]]
    for dipole in doc["system"]["dipoles"]:
        dipole["moment"] *= 1e6
    doc["dissipation"] = {
        "dephasing": (1e6 * np.array([[0, .3, .3], [.3, 0, .4], [.3, .4, 0]])).tolist(),
        "relaxation": (1e6 * np.array([[0, .2, .05], [.01, 0, .3], [.02, .04, 0]])).tolist(),
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 0
    assert "forward bounded: yes, zero modes: 1\n" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["spectrum"]["zero_modes"] == 1
    assert report["equilibrium_note"] == "unique"


def test_analyze_stdout_mentions_key_facts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, make_doc())
    assert main(["analyze", "--config", cfg_path]) == 0
    text = capsys.readouterr().out
    assert "overlap" in text
    assert "closure" in text
    assert "spectrum" in text or "eigenvalue" in text


def test_analyze_names_the_support_overlap_of_a_diagonal_control(capsys):
    # a config's dipoles never touch the dissipator's entries; a sigma_z-type
    # control, from a RunConfig built in code, shares the dephasing entries
    cfg = load_template("driven_qubit")
    system = ControlSystem(h0=cfg.system.h0, controls=(np.diag([1.0, -1.0]),),
                           hbar=cfg.system.hbar)
    assert cli.cmd_analyze(dataclasses.replace(cfg, system=system)) == 0
    assert "control/dissipator support overlap: (1,1), (2,2)\n" in capsys.readouterr().out


def test_sweep_that_is_not_a_conic_still_writes_its_points(tmp_path, capsys):
    # a control coupling every pair of a three-level ladder leaves the plane,
    # which only a RunConfig built in code can express
    cfg = load_template("three_level_ladder")
    a = np.random.default_rng(33).standard_normal((3, 3, 2)) @ [1.0, 1j]
    system = ControlSystem(h0=cfg.system.h0, controls=(a + a.conj().T,), hbar=cfg.system.hbar)
    out = tmp_path / "sweep.csv"
    amplitudes = np.linspace(-1.5, 1.5, 40)
    assert cli.cmd_sweep(dataclasses.replace(cfg, system=system), out, 0, amplitudes) == 0
    assert capsys.readouterr().out.startswith("conic fit: kind=not a conic\n")
    rows = [line.split(",") for line in out.read_text().splitlines() if line[0] != "#"][1:]
    assert [float(row[0]) for row in rows] == amplitudes.tolist()
    assert all(len(row) == 10 for row in rows)


def test_analyze_zero_dissipation_reports_nonunique(tmp_path, capsys):
    doc = make_doc()
    doc["dissipation"] = {
        "dephasing": [[0.0, 0.0], [0.0, 0.0]],
        "relaxation": [[0.0, 0.0], [0.0, 0.0]],
    }
    out = tmp_path / "r.json"
    cfg_path = write_config(tmp_path, doc)
    assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["steady_state"] is None
    assert "equilibrium" in report["equilibrium_note"]


def test_sweep_flags_override_config(tmp_path, capsys):
    cfg_path = write_config(tmp_path, make_doc())
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--control", "0",
                 "--amplitudes=-2,-1,-0.5,0,0.5,1,2"])
    assert code == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    preamble = [l for l in lines if l.startswith("# ")]
    assert any("ellipse" in l for l in preamble)
    rows = [l for l in lines if not l.startswith("#")]
    assert len(rows) - 1 == 7


def test_sweep_zero_dissipation_is_physics_error(tmp_path, capsys):
    doc = make_doc(sweep={"control": 0, "amplitudes": [-2, -1, 0, 1, 2, 3]})
    doc["dissipation"] = {
        "dephasing": [[0.0, 0.0], [0.0, 0.0]],
        "relaxation": [[0.0, 0.0], [0.0, 0.0]],
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "physics error" in err
    assert "non-unique equilibrium at amplitude -2" in err


def test_sweep_lets_library_faults_propagate(tmp_path, capsys, monkeypatch):
    # only refused arguments (InputError) are config errors; a numerical
    # failure inside the library is not one, and is not relabelled as one
    def fail(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(dynamics, "_sweep_fixed_points", fail)
    cfg_path = write_config(tmp_path, json.loads(template_text("driven_qubit")))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s.csv")])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("template", ["driven_qubit", "quasi_spin_qubit"])
@pytest.mark.parametrize("energy", [1e16, 1e200])
def test_phase_without_digits_is_a_config_error(tmp_path, capsys, template, energy):
    # the piecewise template exited 0 with a linearized z(8), the sampled one
    # exited 3 with "hermiticity nan" after a RuntimeWarning
    doc = json.loads(template_text(template))
    doc["system"]["energies"] = [energy, -energy]
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: segment 0: generator phase ")
    assert captured.err.endswith(" passes the 1e+10 bound, past which exp(G t) keeps too few "
                                 "digits\n")
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


@pytest.mark.parametrize("dephasing, driven, duration, sample_dt", [
    (1e16, False, 3.0, 3.0),  # exit 0 with z(3) = 0.736 against the exact 0.950
    (5e15, False, 3.0, 3.0),  # exit 3, "state left the physical set", though CP
    (1e12, True, 3.0, 3.0),  # exit 0, 3.7e-5 from the same run at sample_dt 0.001
    (1e300, False, 1.0, 0.1),  # exit 0 with z(1) = 1.0 against the exact 0.632
], ids=["exit0", "exit3", "driven", "extreme"])
def test_stiff_dissipation_is_a_config_error(tmp_path, capsys, dephasing, driven, duration,
                                             sample_dt):
    # the phase bound counts the dissipator: relaxation 1 -> 0 at rate 1
    # relaxes z slowly next to a dephasing many orders faster
    doc = {"system": {"levels": 2, "energies": [0.0, 1.0],
                      "dipoles": [{"levels": [0, 1], "moment": 0.5}][:driven]},
           "dissipation": {"dephasing": [[0.0, dephasing], [dephasing, 0.0]],
                           "relaxation": [[0.0, 1.0], [0.0, 0.0]]},
           "field": {"kind": "piecewise",
                     "segments": [{"duration": duration, "values": [1.0][:driven]}]},
           "initial": {"pure": [[1.0, 0.0], [1.0, 0.0]]}, "run": {"sample_dt": sample_dt}}
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "config error: segment 0: generator phase %.3g passes the "
                                       "1e+10 bound, past which exp(G t) keeps too few digits\n"
                                   % (duration * dephasing))
    assert not out.exists()


@pytest.mark.parametrize("energies, sample_dt, first, admitted", [
    ([0.0, 10.0], 0.34, "segment 0: RK4 step 0.333 times the spectral radius 10.2 ", "0.147"),
    ([0.0, 10.0], 0.25, "segment 0: RK4 step 0.25 times the spectral radius 10.2 ", "0.147"),
    ([1e9, -1e9], 0.01, "segment 0: RK4 step 0.01 times the spectral radius 2e+09 ", "7.49e-10"),
], ids=["dt0.34", "dt0.25", "energies1e9"])
def test_rk4_step_past_the_stability_bound_is_a_config_error(tmp_path, capfd, energies,
                                                             sample_dt, first, admitted):
    # without the bound, 0.34 exited 3 ("state left the physical set"), 0.25
    # exited 0 with a final x of 1.2e-7 against -0.119, and +-1e9 warned of
    # an overflow in matmul before exit 3
    doc = json.loads(template_text("quasi_spin_qubit"))
    doc["system"]["energies"] = energies
    doc["run"]["sample_dt"] = sample_dt
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert capfd.readouterr() == ("", "config error: %sof A(f) passes the 1.5 stability bound; "
                                      "sample_dt %s or less admits every segment\n"
                                      % (first, admitted))
    assert not out.exists()
    doc["run"]["sample_dt"] = float(admitted)
    if energies[1] == 10.0:
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0


def _ladder_doc(levels):
    """A config of a relaxing ladder with the given number of levels."""
    rates = np.full((levels, levels), 0.1) - 0.1 * np.eye(levels)
    return {
        "system": {"levels": levels, "energies": list(range(levels)),
                   "dipoles": [{"levels": [0, 1], "moment": 1.0}]},
        "dissipation": {"dephasing": (2 * rates).tolist(), "relaxation": rates.tolist()},
        "field": {"segments": [{"duration": 0.1, "values": [0.5]}]},
        "initial": {"pure": [[1.0, 0.0]] + [[0.0, 0.0]] * (levels - 1)},
        "sweep": {"control": 0, "amplitudes": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]},
    }


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
def test_more_than_eight_levels_is_a_config_error(tmp_path, capsys, command):
    # the north star supports N up to 8; the library itself takes any N
    assert parse_config(_ladder_doc(8)).system.dim == 8
    out = tmp_path / "x.out"
    assert main([command, "--config", write_config(tmp_path, _ladder_doc(9)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "config error: config field system/levels: 9 is greater than the maximum of 8\n")
    assert not out.exists()


def test_sweep_requires_amplitudes_somewhere(tmp_path, capsys):
    cfg_path = write_config(tmp_path, make_doc())
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_sweep_non_finite_amplitude_flag_is_config_error(tmp_path, capsys, bad):
    cfg_path = write_config(tmp_path, make_doc())
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s.csv"),
                 "--control", "0", "--amplitudes", "0,1,2,%s,3,4" % bad]) == 2
    assert capsys.readouterr().err == (
        "config error: amplitude %s: field amplitudes must be finite\n" % bad)


def test_exit_codes(tmp_path, capsys):
    assert main(["simulate", "--config", "/missing.json",
                 "--out", str(tmp_path / "x.csv")]) == 2
    doc = make_doc(
        initial={"density": [[[1.4, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.4, 0.0]]]}
    )
    cfg_path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg_path,
                 "--out", str(tmp_path / "y.csv")]) == 3
    err = capsys.readouterr().err
    assert "physics error" in err


def test_tolerance_read_by_simulate_only(tmp_path, capsys):
    doc = make_doc(sweep={"control": 0, "amplitudes": [-2, -1, 0, 1, 2, 3]})
    cfg_path = write_config(tmp_path, doc)
    for command in ("analyze", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg_path, "--out", str(tmp_path / "t"), "--tol", "1e-6"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--tol" not in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tolerance_must_be_positive_and_finite(tmp_path, capsys, value):
    cfg_path = write_config(tmp_path, make_doc())
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--tol", value]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_mid_trajectory_failure_is_physics_error(tmp_path, capsys):
    doc = make_doc(initial={"density": [[[0.3, 0.0], [0.45, 0.0]], [[0.45, 0.0], [0.7, 0.0]]]})
    doc["dissipation"] = {
        "dephasing": [[0.0, 0.0], [0.0, 0.0]],
        "relaxation": [[0.0, 0.5], [0.0, 0.0]],
    }
    doc["field"]["segments"] = [{"duration": 3.0, "values": [0.0, 0.0]}]
    cfg_path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                 "--sample-dt", "0.05"]) == 3
    err = capsys.readouterr().err
    assert "physics error" in err
    assert "left the physical set at t=" in err


def _put_energy(doc, x):
    doc["system"]["energies"][1] = x


def _put_dephasing(doc, x):
    doc["dissipation"]["dephasing"][0][1] = doc["dissipation"]["dephasing"][1][0] = x


def _put_duration(doc, x):
    doc["field"]["segments"][0]["duration"] = x


def _put_hbar(doc, x):
    doc["system"]["hbar"] = x


def _put_sweep_amplitude(doc, x):
    doc["sweep"] = {"control": 0, "amplitudes": [x, -1.0, 0.0, 1.0, 2.0, 3.0]}


PUTS = [_put_energy, _put_dephasing, _put_duration, _put_hbar, _put_sweep_amplitude]
PUT_IDS = ["energy", "dephasing", "duration", "hbar", "sweep_amplitude"]
# a number that appears nowhere else in the config, swapped for the literal
PLACEHOLDER = 123.25


@pytest.mark.parametrize("put", PUTS, ids=PUT_IDS)
@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, put, literal):
    # NaN and Infinity are not JSON, and 1e400 would decode to inf
    doc = make_doc(sweep={"control": 0, "amplitudes": [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]})
    put(doc, PLACEHOLDER)
    text = json.dumps(doc)
    assert text.count(repr(PLACEHOLDER)) >= 1
    path = tmp_path / "nonfinite.json"
    path.write_text(text.replace(repr(PLACEHOLDER), literal))
    out = tmp_path / "x.csv"
    for command in ("simulate", "analyze", "sweep"):
        args = [command, "--config", str(path)]
        assert main(args + ([] if command == "analyze" else ["--out", str(out)])) == 2
        captured = capsys.readouterr()
        assert "config error: config contains the non-finite number %s" % literal in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()


@pytest.mark.parametrize("put", PUTS[:4], ids=PUT_IDS[:4])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_parse_config_rejects_non_finite_model_numbers(put, value):
    # documents decoded elsewhere reach the model's own finiteness checks
    doc = make_doc()
    put(doc, value)
    with pytest.raises(ConfigError, match="finite"):
        parse_config(doc)


def test_analyze_vanishing_generators_close_to_the_zero_algebra(tmp_path, capsys):
    # equal energies, no dipoles and zero rates: every generator piece is 0
    doc = make_doc(field={"segments": [{"duration": 1.0, "values": []}]})
    doc["system"] = {"levels": 2, "energies": [0.5, 0.5]}
    doc["dissipation"] = {"dephasing": [[0.0, 0.0], [0.0, 0.0]],
                          "relaxation": [[0.0, 0.0], [0.0, 0.0]]}
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "affine closure dimension: 0 (homogeneous 0, translation 0)\n" in captured.out


def test_analyze_keeps_the_drift_of_huge_energies(tmp_path, capsys):
    # the closure's row norms must not square entries near 1e200: that
    # overflows, warns and drops the drift, whose scale leaves the algebra as is
    doc = json.loads(template_text("quasi_spin_qubit"))
    doc["system"]["energies"] = [1e200, -1e200]
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "affine closure dimension: 9 (homogeneous 9, translation 0)\n" in captured.out


def test_coherence_trace_part_must_be_one(tmp_path, capsys):
    # as for a density matrix with trace 2: a physics error on every command
    doc = json.loads(template_text("quasi_spin_qubit"))
    doc["initial"] = {"coherence": {"bloch": [0.0, 0.0, 0.0], "trace_part": 2.0}}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "x.out"
    for command in ("simulate", "analyze", "sweep"):
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("physics error: unphysical state: ")
        assert "trace offset 1," in captured.err and captured.out == ""
        assert not out.exists()


def _complex_rows(m):
    return [[[float(x), 0.0] for x in row] for row in m]


@pytest.mark.parametrize("args, initial", [
    (["sweep", "--control", "0", "--amplitudes=0,1,2,3,4"], None),
    (["sweep", "--control", "2", "--amplitudes=0,1,2,3,4,5"], None),
    (["sweep", "--control", "0", "--amplitudes=0,1,two,3,4,5"], None),
    (["analyze"], {"pure": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}),
    (["analyze"], {"density": _complex_rows(np.diag([1.0, 0.0, 0.0]))}),
    (["analyze"], {"coherence": {"bloch": [0.0] * 8}}),
    (["template", "retired"], None),
], ids=["too_few_amplitudes", "control_out_of_range", "non_numeric_amplitude",
        "pure_wrong_size", "density_wrong_size", "coherence_wrong_size", "unknown_template"])
def test_config_error_branches_exit_2(tmp_path, capsys, monkeypatch, args, initial):
    if args[0] == "template":
        # a name the parser offers but the package does not ship reaches
        # template_text's own check
        monkeypatch.setattr(cli, "template_names", lambda: template_names() + ["retired"])
        argv = args
    else:
        doc = make_doc()
        if initial is not None:
            doc["initial"] = initial
        argv = args[:1] + ["--config", write_config(tmp_path, doc),
                           "--out", str(tmp_path / "x.out")] + args[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
@pytest.mark.parametrize("template", template_names())
def test_each_command_builds_the_generator_twice(tmp_path, capsys, monkeypatch, command,
                                                 template):
    # once in parse_config, whose overflow check fails every command before
    # any work, and once for the command itself
    builds = []
    build = bloch._affine_pieces

    def counted(sys_, spec):
        builds.append(sys_)
        return build(sys_, spec)

    for module in (bloch, config, algebra, dynamics, cli):
        if hasattr(module, "_affine_pieces"):
            monkeypatch.setattr(module, "_affine_pieces", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(template_text(template))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == 0
    capsys.readouterr()
    assert len(builds) == 2


def _argv(command, cfg, out):
    if command == "template":
        return ["template", "driven_qubit", "--out", str(out)]
    return [command, "--config", str(cfg), "--out", str(out)]


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep", "template"])
@pytest.mark.parametrize("case", ["missing_directory", "directory"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                   case):
    # without the check, each command did all its work and then failed to
    # open --out with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(template_text("driven_qubit"))
    for name in ("load_config", "template_text"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("work before the --out check"))
    target = tmp_path / "target"
    target.mkdir()
    out = target / "missing" / "x.out" if case == "missing_directory" else target
    assert main(_argv(command, cfg, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --out %s is a directory or lies in a missing one\n" % out
    # nothing on stdout, and no file or directory made
    assert captured.out == "" and not any(target.iterdir())


@pytest.mark.parametrize("command", ["simulate", "analyze", "sweep", "template"])
def test_failed_write_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(template_text("driven_qubit"))

    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", full, raising=False)
    assert main(_argv(command, cfg, tmp_path / "x.out")) == 2
    err = capsys.readouterr().err
    assert err == "config error: cannot write %s: %s\n" % (tmp_path / "x.out",
                                                          os.strerror(errno.ENOSPC))


def test_analyze_without_controls_has_an_empty_overlap(tmp_path, capsys):
    doc = json.loads(template_text("three_level_ladder"))
    doc["system"]["dipoles"] = []
    del doc["sweep"]
    for segment in doc["field"]["segments"]:
        segment["values"] = []
    assert main(["analyze", "--config", write_config(tmp_path, doc)]) == 0
    assert ("control/dissipator support overlap: empty (cancellation infeasible: controls "
            "cannot reach the dissipator entries)\n") in capsys.readouterr().out
