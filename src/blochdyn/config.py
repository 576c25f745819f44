"""Run configuration: JSON schema validation and object construction.

A configuration file is a single JSON document validated against the schema
shipped as config_schema.json, then lowered onto the model types. Complex
numbers are [re, im] pairs, matrices row-major nested arrays, and all level
and control indices 0-based.

The schema file is the one source of truth, read by a small walker that
implements the draft-07 keywords it uses: type, required, properties,
additionalProperties (false), items, minItems/maxItems,
minProperties/maxProperties, enum, minimum, maximum, exclusiveMinimum and
$ref into #/definitions. description and default are annotations. As in
draft-07, a bool is not a number and 2.0 is an integer; integer fields are
converted with int() once the document is valid.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .bloch import _affine_pieces
from .errors import ConfigError
from .liouville import _admit
from .model import ControlField, ControlSystem, DissipationSpec, dipole_coupling
from .states import CoherenceVector, check_density, from_coherence_vector, from_pure
from .tolerances import overruns

DEFAULT_OUTPUTS = ("bloch", "purity")


def _schema():
    text = resources.files("blochdyn").joinpath("config_schema.json").read_text()
    return json.loads(text)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _schema_errors(node, schema, root, path=()):
    """Yield (path, message) for each way node breaks schema.

    root holds the definitions that "$ref" names. A node of the wrong type
    is not checked further.
    """
    if "$ref" in schema:
        # draft-07: a $ref replaces its sibling keywords
        schema = root["definitions"][schema["$ref"][len("#/definitions/"):]]
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](node):
        yield path, "%r is not of type %r" % (node, kind)
        return
    if "enum" in schema and node not in schema["enum"]:
        yield path, "%r is not one of %r" % (node, schema["enum"])
    if _is_number(node):
        if "minimum" in schema and node < schema["minimum"]:
            yield path, "%r is less than the minimum of %r" % (node, schema["minimum"])
        if "maximum" in schema and node > schema["maximum"]:
            yield path, "%r is greater than the maximum of %r" % (node, schema["maximum"])
        if "exclusiveMinimum" in schema and node <= schema["exclusiveMinimum"]:
            yield path, "%r is not greater than %r" % (node, schema["exclusiveMinimum"])
    elif isinstance(node, (list, dict)):
        low, high = ("minItems", "maxItems") if isinstance(node, list) else (
            "minProperties", "maxProperties")
        if low in schema and len(node) < schema[low]:
            yield path, "has %d entries, expected at least %d" % (len(node), schema[low])
        if high in schema and len(node) > schema[high]:
            yield path, "has %d entries, expected at most %d" % (len(node), schema[high])
    if isinstance(node, list) and "items" in schema:
        for i, item in enumerate(node):
            yield from _schema_errors(item, schema["items"], root, path + (i,))
    elif isinstance(node, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in node:
                yield path, "%r is a required property" % key
        extra = [key for key in node if key not in props]
        if extra and schema.get("additionalProperties") is False:
            yield path, "unexpected propert%s %s" % (
                "y" if len(extra) == 1 else "ies", ", ".join(map(repr, extra)))
        for key, value in node.items():
            if key in props:
                yield from _schema_errors(value, props[key], root, path + (key,))


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration lowered onto model objects."""

    system: ControlSystem
    dissipation: DissipationSpec
    field: ControlField
    rho0: np.ndarray
    duration: float
    sample_dt: object
    outputs: tuple
    sweep_control: object
    sweep_amplitudes: object


def _complex(pair):
    return complex(pair[0], pair[1])


def _complex_matrix(rows):
    return np.array([[_complex(x) for x in row] for row in rows], dtype=complex)


def _finite_number(text):
    # Python's decoder accepts NaN and Infinity, which JSON lacks, and reads 1e400 as inf
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError("config contains the non-finite number %s" % text)
    return value


@contextmanager
def _section(name):
    """A ValueError raised inside, InputError included, is a ConfigError that names the section."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError("%s: %s" % (name, exc)) from exc


def load_config(path):
    """Parse, schema-validate and lower a configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_finite_number, parse_float=_finite_number)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config is not valid JSON (line %d, column %d): %s"
            % (exc.lineno, exc.colno, exc.msg)
        ) from exc
    return parse_config(doc)


def parse_config(doc):
    """Validate and lower an already-decoded configuration document."""
    schema = _schema()
    for path, message in _schema_errors(doc, schema, schema):
        where = "/".join(map(str, path)) or "(top level)"
        raise ConfigError("config field %s: %s" % (where, message))

    sysdoc = doc["system"]
    levels = int(sysdoc["levels"])
    energies = sysdoc["energies"]
    if len(energies) != levels:
        raise ConfigError(
            "system.energies has %d entries for %d levels" % (len(energies), levels)
        )
    controls = []
    for i, dip in enumerate(sysdoc.get("dipoles", [])):
        j, k = map(int, dip["levels"])
        with _section("system.dipoles[%d]" % i):
            controls.append(
                dipole_coupling(levels, j, k, dip["moment"], dip.get("axis", "x"))
            )
    with _section("system"):
        system = ControlSystem(
            h0=np.diag(np.asarray(energies, dtype=float)).astype(complex),
            controls=tuple(controls),
            hbar=float(sysdoc.get("hbar", 1.0)),
        )

    dis = doc["dissipation"]
    with _section("dissipation"):
        spec = DissipationSpec(
            dephasing=np.asarray(dis["dephasing"], dtype=float),
            relaxation=np.asarray(dis["relaxation"], dtype=float),
        )
    if spec.dim != levels:
        raise ConfigError(
            "dissipation matrices are %dx%d but the system has %d levels"
            % (spec.dim, spec.dim, levels)
        )

    flddoc = doc["field"]
    with _section("field"):
        field = ControlField(
            segments=tuple((s["duration"], s["values"]) for s in flddoc["segments"]),
            kind=flddoc.get("kind", "piecewise"),
        )
    # finite numbers can still overflow the generator; found here, before
    # any stepping, and not as warnings and NaN states later
    gens = _affine_pieces(system, spec)
    _admit(gens, [values for _, values in field.segments], lambda k: "field.segments[%d]" % k)

    rho0 = _initial_state(doc["initial"], levels)

    rundoc = doc.get("run", {})
    duration = rundoc.get("duration", field.total_duration)
    if overruns(duration, field.total_duration):
        raise ConfigError(
            "run.duration %g exceeds the field program length %g"
            % (duration, field.total_duration)
        )
    sample_dt = rundoc.get("sample_dt")
    outputs = tuple(rundoc.get("outputs", DEFAULT_OUTPUTS))

    sweepdoc = doc.get("sweep")
    sweep_control = None
    sweep_amplitudes = None
    if sweepdoc is not None:
        sweep_control = int(sweepdoc["control"])
        if sweep_control >= system.n_controls:
            raise ConfigError(
                "sweep.control %d out of range for %d controls"
                % (sweep_control, system.n_controls)
            )
        sweep_amplitudes = np.asarray(sweepdoc["amplitudes"], dtype=float)
        rows = np.zeros((sweep_amplitudes.size, system.n_controls))
        rows[:, sweep_control] = sweep_amplitudes
        _admit(gens, rows, lambda k: "sweep.amplitudes[%d]" % k)

    return RunConfig(
        system=system,
        dissipation=spec,
        field=field,
        rho0=rho0,
        duration=float(duration),
        sample_dt=sample_dt,
        outputs=outputs,
        sweep_control=sweep_control,
        sweep_amplitudes=sweep_amplitudes,
    )


def _initial_state(doc, levels):
    # validity failures here are physics errors, not parse errors, and pass
    # through as UnphysicalStateError
    if "pure" in doc:
        amps = [_complex(p) for p in doc["pure"]]
        if len(amps) != levels:
            raise ConfigError(
                "initial.pure has %d amplitudes for %d levels" % (len(amps), levels)
            )
        with _section("initial.pure"):
            return from_pure(amps)
    if "density" in doc:
        rho = _complex_matrix(doc["density"])
        if rho.shape != (levels, levels):
            raise ConfigError(
                "initial.density must be %dx%d, got %dx%d"
                % (levels, levels, rho.shape[0], rho.shape[1])
            )
        check_density(rho)
        return rho
    cdoc = doc["coherence"]
    bloch = np.asarray(cdoc["bloch"], dtype=float)
    if bloch.size != levels * levels - 1:
        raise ConfigError(
            "initial.coherence.bloch needs %d components for %d levels"
            % (levels * levels - 1, levels)
        )
    v = CoherenceVector(bloch=bloch, trace_part=float(cdoc.get("trace_part", 1.0)))
    return from_coherence_vector(v)


def template_names():
    """Names of the configuration templates shipped with the package."""
    tdir = resources.files("blochdyn").joinpath("templates")
    names = [p.name[: -len(".json")] for p in tdir.iterdir() if p.name.endswith(".json")]
    return sorted(names)


def template_text(name):
    """Raw text of a shipped template."""
    if name not in template_names():
        raise ConfigError(
            "unknown template %r (available: %s)" % (name, ", ".join(template_names()))
        )
    return (
        resources.files("blochdyn")
        .joinpath("templates")
        .joinpath(name + ".json")
        .read_text()
    )
