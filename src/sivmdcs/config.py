"""Declarative experiment configuration.

Line-oriented ``key = value`` format with ``[section]`` headers.  Physical
quantities carry mandatory unit suffixes (``thz``, ``ghz``, ``mhz``, ``ps``,
``ns``); dimensionless values carry none.  Unknown sections or keys are
rejected with the offending line number.  ``serialize_config`` emits a
canonical form that reparses to an equal configuration.

Population components live in repeated ``[component.NAME]`` sections.  The
``t2`` key accepts a constant ("122 ps"), weighted classes
("120 ps : 0.65, 990 ps : 0.35"), or a log-normal spread
("lognormal 300 ps 0.5").

The table ``_SCHEMA`` is the full schema: each key, its parser and
formatter, its default and the field it fills.  ``parse_config`` and
``serialize_config`` both walk it.
"""
from __future__ import annotations

import functools
import hashlib
import math
import typing
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .emitter import (STRAIN_SHAPES, EnsembleSpec, LaserSpectrum, LevelScheme,
                      PopulationComponent, StrainModel, T2Rule)
from .errors import ConfigSyntaxError, InvalidSpec, SchemaError, UnitError
from .pathways import TagSet
from .response import DETECTION_MODES, Grid

_TO_THZ = {"thz": 1.0, "ghz": 1e-3, "mhz": 1e-6}
_TO_PS = {"ps": 1.0, "ns": 1e3, "us": 1e6}


def _quantity(canonical):
    dim = _TO_THZ if canonical in _TO_THZ else _TO_PS

    def parse(text, line, field):
        parts = text.split()
        if len(parts) != 2:
            raise UnitError(f"expected '<number> <unit>', got {text!r}",
                            line=line, field=field)
        try:
            value = float(parts[0])
        except ValueError:
            raise UnitError(f"bad number {parts[0]!r}", line=line, field=field)
        unit = parts[1].lower()
        if unit not in dim:
            raise UnitError(f"unit {parts[1]!r} is not a "
                            f"{'frequency' if dim is _TO_THZ else 'time'} unit",
                            line=line, field=field)
        value = value * dim[unit] / dim[canonical]
        # checked after the conversion, which can overflow a finite number
        if not math.isfinite(value):
            raise UnitError(f"quantity must be finite, got {text!r}",
                            line=line, field=field)
        return value

    def fmt(value):
        return f"{value!r} {canonical}"

    return parse, fmt


_THZ = _quantity("thz")
_GHZ = _quantity("ghz")
_MHZ = _quantity("mhz")
_PS = _quantity("ps")
_NS = _quantity("ns")


def _number(text, line, field):
    try:
        value = float(text)
    except ValueError:
        raise UnitError(f"expected a bare number, got {text!r}", line=line, field=field)
    if not math.isfinite(value):
        raise UnitError(f"number must be finite, got {text!r}", line=line, field=field)
    return value


def _integer(text, line, field):
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"expected an integer, got {text!r}", line=line, field=field)


def _boolean(text, line, field):
    low = text.strip().lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    raise SchemaError(f"expected a boolean, got {text!r}", line=line, field=field)


def _enum(allowed):
    def parse(text, line, field):
        if text not in allowed:
            raise SchemaError(f"value {text!r} not in {allowed}", line=line, field=field)
        return text
    return parse, str


def _parse_t2(text, line, field):
    parse_ps = _PS[0]
    text = text.strip()
    kind, sigma = "constant", 0.0
    if text.startswith("lognormal"):
        parts = text.split()
        if len(parts) != 4:
            raise SchemaError("lognormal T2 rule is 'lognormal <median> <unit> <sigma>'",
                              line=line, field=field)
        kind, sigma = "lognormal", _number(parts[3], line, field)
        values, weights = [parse_ps(" ".join(parts[1:3]), line, field)], [1.0]
    elif "," in text or ":" in text:
        kind, values, weights = "classes", [], []
        for chunk in text.split(","):
            if ":" not in chunk:
                raise SchemaError(f"T2 class {chunk.strip()!r} needs '<time> : <weight>'",
                                  line=line, field=field)
            tpart, wpart = chunk.split(":", 1)
            values.append(parse_ps(tpart.strip(), line, field))
            weights.append(_number(wpart.strip(), line, field))
    else:
        values, weights = [parse_ps(text, line, field)], [1.0]
    try:
        return T2Rule(kind=kind, values_ps=tuple(values), weights=tuple(weights),
                      log_sigma=sigma)
    except InvalidSpec as exc:
        raise SchemaError(str(exc), line=line, field=field) from exc


def _fmt_t2(rule: T2Rule) -> str:
    if rule.kind == "constant":
        return f"{rule.values_ps[0]!r} ps"
    if rule.kind == "classes":
        return ", ".join(f"{v!r} ps : {w!r}" for v, w in zip(rule.values_ps, rule.weights))
    return f"lognormal {rule.values_ps[0]!r} ps {rule.log_sigma!r}"


def _parse_yield(text, line, field):
    if text.strip() == "strain":
        return "strain"
    return _number(text, line, field)


_NUMBER = (_number, repr)
_INTEGER = (_integer, repr)


class _Key(typing.NamedTuple):
    section: str
    key: str
    parse: typing.Callable
    format: typing.Callable
    default: object
    field: str


# A population component's keys, repeated in every [component.NAME] section.
_COMPONENT = "component.NAME"

# One row per key: section, key, parser and formatter, default, and the field
# it fills.  Component rows fill a PopulationComponent; the others fill
# ExperimentConfig.  A dotted field fills a field of the sub-object named
# before the dot.  A callable default is computed from the fields of the rows
# above it.  Row order is the order of the canonical text, which every
# config hash depends on.
_SCHEMA = (
    # the SiV- zero-phonon lines 406.654, 406.713, 406.915 and 406.974 THz
    _Key("scheme", "center", *_THZ, 406.8140, "scheme.center_thz"),
    _Key("scheme", "ground_splitting", *_GHZ, 59.0, "scheme.ground_splitting_ghz"),
    _Key("scheme", "excited_splitting", *_GHZ, 261.0, "scheme.excited_splitting_ghz"),
    _Key("strain", "shift", *_THZ, 1.0, "strain.shift_thz_per_unit"),
    _Key("strain", "ground_splitting_shift", *_GHZ, 0.0,
         "strain.ground_splitting_ghz_per_unit"),
    _Key("strain", "excited_splitting_shift", *_GHZ, 0.0,
         "strain.excited_splitting_ghz_per_unit"),
    _Key("strain", "yield_crossover", *_NUMBER, 1.0, "strain.yield_crossover"),
    _Key("strain", "yield_steepness", *_NUMBER, 2.0, "strain.yield_steepness"),
    _Key("strain", "bright_yield", *_NUMBER, 1.0, "strain.bright_yield"),
    _Key("laser", "center", *_THZ, 406.770, "laser.center_thz"),
    _Key("laser", "fwhm", *_THZ, 4.14, "laser.fwhm_thz"),
    _Key("grid", "tau_points", *_INTEGER, 512, "grid.n_tau"),
    _Key("grid", "t_points", *_INTEGER, 512, "grid.n_t"),
    _Key("grid", "tau_step", *_PS, 1.171875, "grid.tau_step_ps"),
    _Key("grid", "t_step", *_PS, 1.171875, "grid.t_step_ps"),
    _Key("grid", "frame", *_THZ, itemgetter("laser.center_thz"), "grid.frame_thz"),
    _Key("simulation", "waiting_time", *_PS, 0.5, "waiting_time_ps"),
    _Key("simulation", "mode", *_enum(DETECTION_MODES), "pl", "mode"),
    _Key("simulation", "noise", *_NUMBER, 0.0, "noise"),
    _Key("simulation", "seed", *_INTEGER, 7, "seed"),
    _Key("simulation", "ensemble_size", *_INTEGER, 400, "ensemble_size"),
    _Key("tags", "nu1", *_MHZ, 80.000, "tags.nu1_mhz"),
    _Key("tags", "nu2", *_MHZ, 80.107, "tags.nu2_mhz"),
    _Key("tags", "nu3", *_MHZ, 80.214, "tags.nu3_mhz"),
    _Key("tags", "nu4", *_MHZ, 80.300, "tags.nu4_mhz"),
    _Key(_COMPONENT, "weight", *_NUMBER, 1.0, "weight"),
    _Key(_COMPONENT, "strain_shape", *_enum(STRAIN_SHAPES), "gaussian", "strain.shape"),
    _Key(_COMPONENT, "strain_center", *_NUMBER, 0.0, "strain.center"),
    _Key(_COMPONENT, "strain_fwhm", *_NUMBER, 0.028, "strain.fwhm"),
    _Key(_COMPONENT, "t2", _parse_t2, _fmt_t2,
         T2Rule(kind="constant", values_ps=(122.0,), weights=(1.0,)), "t2"),
    _Key(_COMPONENT, "t1", *_NS, 1.7, "t1_ns"),
    _Key(_COMPONENT, "dipole", *_NUMBER, 1.0, "dipole"),
    _Key(_COMPONENT, "yield", _parse_yield,
         lambda v: v if isinstance(v, str) else repr(v), "strain", "yield_rule"),
    _Key(_COMPONENT, "two_level", _boolean, lambda v: "true" if v else "false",
         False, "two_level"),
)

# section -> {key: row}, in table order
_SECTIONS = {section: {row.key: row for row in _SCHEMA if row.section == section}
             for section in dict.fromkeys(row.section for row in _SCHEMA)}
_CONFIG_SECTIONS = [section for section in _SECTIONS if section != _COMPONENT]


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: LevelScheme
    strain: StrainModel
    laser: LaserSpectrum
    grid: Grid
    tags: TagSet
    ensemble: EnsembleSpec
    component_names: tuple[str, ...]
    waiting_time_ps: float
    mode: str
    noise: float
    seed: int
    ensemble_size: int

    def __post_init__(self):
        # numpy's generators take only non-negative seeds
        if self.seed < 0:
            raise InvalidSpec(f"seed must be a non-negative integer, got {self.seed}")


def _fields(sections, given) -> dict:
    """{field: value} for every row of ``sections``: the value ``given``
    holds for its section and key, else the row's default."""
    values = {}
    for section in sections:
        got = given.get(section, {})
        for key, row in _SECTIONS[section].items():
            if key in got:
                values[row.field] = got[key]
            elif callable(row.default):
                values[row.field] = row.default(values)
            else:
                values[row.field] = row.default
    return values


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _build(cls, values: dict):
    """``cls`` built by keyword from {field: value}.  A dotted field fills a
    field of the sub-object named before the dot; that sub-object is built
    the same way, as the type that ``cls`` declares for it."""
    kwargs, parts = {}, {}
    for name, value in values.items():
        head, dot, rest = name.partition(".")
        if dot:
            parts.setdefault(head, {})[rest] = value
        else:
            kwargs[name] = value
    for head, sub in parts.items():
        kwargs[head] = _build(_field_types(cls)[head], sub)
    return cls(**kwargs)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration, or raise a structured error."""
    given: dict[str, dict] = {}
    component_order: list[str] = []
    current = None
    current_name = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            section = name
            if name.startswith("component."):
                comp = name[len("component."):]
                if not comp:
                    raise SchemaError("component section needs a name", line=lineno)
                if name in given:
                    raise SchemaError(f"duplicate section [{name}]", line=lineno)
                component_order.append(comp)
                section = _COMPONENT
            elif name not in _SECTIONS:
                raise SchemaError(f"unknown section [{name}]", line=lineno)
            current_name, keys = name, _SECTIONS[section]
            current = given.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigSyntaxError("key outside any [section]", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in current:
            raise SchemaError(f"duplicate key {key!r} in [{current_name}]",
                              line=lineno, field=f"{current_name}.{key}")
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} in [{current_name}]",
                              line=lineno, field=f"{current_name}.{key}")
        current[key] = keys[key].parse(value, lineno, f"{current_name}.{key}")

    if not component_order:
        raise SchemaError("at least one [component.NAME] section is required",
                          field="component")

    components = []
    for comp in component_order:
        values = _fields([_COMPONENT], {_COMPONENT: given[f"component.{comp}"]})
        try:
            components.append(_build(PopulationComponent, values))
        except InvalidSpec as exc:
            raise SchemaError(str(exc), field=f"component.{comp}") from exc
    try:
        ensemble = EnsembleSpec(tuple(components))
    except InvalidSpec as exc:
        raise SchemaError(str(exc), field="component.weight") from exc

    values = _fields(_CONFIG_SECTIONS, given)
    values.update(ensemble=ensemble, component_names=tuple(component_order))
    try:
        return _build(ExperimentConfig, values)
    except InvalidSpec as exc:
        raise SchemaError(str(exc)) from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    blocks = [(section, section, cfg) for section in _CONFIG_SECTIONS]
    blocks += [(f"component.{name}", _COMPONENT, comp)
               for name, comp in zip(cfg.component_names, cfg.ensemble.components)]
    lines = []
    for header, section, obj in blocks:
        lines.append(f"[{header}]")
        for key, row in _SECTIONS[section].items():
            lines.append(f"{key} = {row.format(attrgetter(row.field)(obj))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
