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
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .emitter import (EnsembleSpec, LaserSpectrum, LevelScheme,
                      PopulationComponent, StrainDistribution, StrainModel,
                      T2Rule)
from .errors import ConfigSyntaxError, InvalidSpec, SchemaError, UnitError
from .pathways import TagSet
from .response import Grid

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
        if not math.isfinite(value):
            raise UnitError(f"quantity must be finite, got {parts[0]!r}",
                            line=line, field=field)
        unit = parts[1].lower()
        if unit not in dim:
            raise UnitError(f"unit {parts[1]!r} is not a "
                            f"{'frequency' if dim is _TO_THZ else 'time'} unit",
                            line=line, field=field)
        return value * dim[unit] / dim[canonical]

    def fmt(value):
        return f"{value!r} {canonical}"

    return parse, fmt


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


def _enum(*allowed):
    def parse(text, line, field):
        if text not in allowed:
            raise SchemaError(f"value {text!r} not in {allowed}", line=line, field=field)
        return text
    return parse


def _string(text, line, field):
    return text


def _parse_t2(text, line, field):
    try:
        return _parse_t2_inner(text, line, field)
    except InvalidSpec as exc:
        raise SchemaError(str(exc), line=line, field=field) from exc


def _parse_t2_inner(text, line, field):
    parse_ps, _ = _quantity("ps")
    text = text.strip()
    if text.startswith("lognormal"):
        parts = text.split()
        if len(parts) != 4:
            raise SchemaError("lognormal T2 rule is 'lognormal <median> <unit> <sigma>'",
                              line=line, field=field)
        median = parse_ps(" ".join(parts[1:3]), line, field)
        sigma = _number(parts[3], line, field)
        return T2Rule("lognormal", (median,), (1.0,), sigma)
    if "," in text or ":" in text:
        values, weights = [], []
        for chunk in text.split(","):
            if ":" not in chunk:
                raise SchemaError(f"T2 class {chunk.strip()!r} needs '<time> : <weight>'",
                                  line=line, field=field)
            tpart, wpart = chunk.split(":", 1)
            values.append(parse_ps(tpart.strip(), line, field))
            weights.append(_number(wpart.strip(), line, field))
        return T2Rule("classes", tuple(values), tuple(weights))
    return T2Rule("constant", (parse_ps(text, line, field),), (1.0,))


def _fmt_t2(rule: T2Rule) -> str:
    if rule.kind == "constant":
        return f"{rule.values_ps[0]!r} ps"
    if rule.kind == "classes":
        return ", ".join(f"{v!r} ps : {w!r}" for v, w in zip(rule.values_ps, rule.weights))
    return f"lognormal {rule.values_ps[0]!r} ps {rule.log_sigma!r}"


def _parse_yield(text, line, field):
    if text.strip() == "strain":
        return "strain"
    value = _number(text, line, field)
    return value


_Q_THZ = _quantity("thz")
_Q_GHZ = _quantity("ghz")
_Q_MHZ = _quantity("mhz")
_Q_PS = _quantity("ps")
_Q_NS = _quantity("ns")

# key -> (parser, formatter, default)
_SCHEMA = {
    "scheme": {
        "center": (_Q_THZ[0], _Q_THZ[1], 406.8140),
        "ground_splitting": (_Q_GHZ[0], _Q_GHZ[1], 59.0),
        "excited_splitting": (_Q_GHZ[0], _Q_GHZ[1], 261.0),
    },
    "strain": {
        "shift": (_Q_THZ[0], _Q_THZ[1], 1.0),
        "ground_splitting_shift": (_Q_GHZ[0], _Q_GHZ[1], 0.0),
        "excited_splitting_shift": (_Q_GHZ[0], _Q_GHZ[1], 0.0),
        "yield_crossover": (_number, repr, 1.0),
        "yield_steepness": (_number, repr, 2.0),
        "bright_yield": (_number, repr, 1.0),
    },
    "laser": {
        "center": (_Q_THZ[0], _Q_THZ[1], 406.770),
        "fwhm": (_Q_THZ[0], _Q_THZ[1], 4.14),
    },
    "grid": {
        "tau_points": (_integer, repr, 512),
        "t_points": (_integer, repr, 512),
        "tau_step": (_Q_PS[0], _Q_PS[1], 1.171875),
        "t_step": (_Q_PS[0], _Q_PS[1], 1.171875),
        "frame": (_Q_THZ[0], _Q_THZ[1], None),   # defaults to laser center
    },
    "simulation": {
        "waiting_time": (_Q_PS[0], _Q_PS[1], 0.5),
        "mode": (_enum("pl", "heterodyne"), str, "pl"),
        "noise": (_number, repr, 0.0),
        "seed": (_integer, repr, 7),
        "ensemble_size": (_integer, repr, 400),
    },
    "tags": {
        "nu1": (_Q_MHZ[0], _Q_MHZ[1], 80.000),
        "nu2": (_Q_MHZ[0], _Q_MHZ[1], 80.107),
        "nu3": (_Q_MHZ[0], _Q_MHZ[1], 80.214),
        "nu4": (_Q_MHZ[0], _Q_MHZ[1], 80.300),
    },
    "output": {
        "directory": (_string, str, "out"),
        "basename": (_string, str, "run"),
    },
}

_COMPONENT_SCHEMA = {
    "weight": (_number, repr, 1.0),
    "strain_shape": (_enum("gaussian", "lorentzian", "delta"), str, "gaussian"),
    "strain_center": (_number, repr, 0.0),
    "strain_fwhm": (_number, repr, 0.028),
    "t2": (_parse_t2, _fmt_t2, T2Rule("constant", (122.0,), (1.0,))),
    "t1": (_Q_NS[0], _Q_NS[1], 1.7),
    "dipole": (_number, repr, 1.0),
    "yield": (_parse_yield, lambda v: v if isinstance(v, str) else repr(v), "strain"),
    "two_level": (_boolean, lambda v: "true" if v else "false", False),
}


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
    out_dir: str
    basename: str


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration, or raise a structured error."""
    sections: dict[str, dict] = {}
    component_order: list[str] = []
    current = None
    current_name = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name.startswith("component."):
                comp = name[len("component."):]
                if not comp:
                    raise SchemaError("component section needs a name", line=lineno)
                if name in sections:
                    raise SchemaError(f"duplicate section [{name}]", line=lineno)
                component_order.append(comp)
            elif name not in _SCHEMA:
                raise SchemaError(f"unknown section [{name}]", line=lineno)
            current_name = name
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigSyntaxError("key outside any [section]", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        schema = (_COMPONENT_SCHEMA if current_name.startswith("component.")
                  else _SCHEMA[current_name])
        if key in current:
            raise SchemaError(f"duplicate key {key!r} in [{current_name}]",
                              line=lineno, field=f"{current_name}.{key}")
        if key not in schema:
            raise SchemaError(f"unknown key {key!r} in [{current_name}]",
                              line=lineno, field=f"{current_name}.{key}")
        parser = schema[key][0]
        current[key] = parser(value, lineno, f"{current_name}.{key}")

    if not component_order:
        raise SchemaError("at least one [component.NAME] section is required",
                          field="component")

    def resolved(section):
        got = sections.get(section, {})
        return {key: got.get(key, default) for key, (_, _, default) in _SCHEMA[section].items()}

    scheme_v = resolved("scheme")
    strain_v = resolved("strain")
    laser_v = resolved("laser")
    grid_v = resolved("grid")
    sim_v = resolved("simulation")
    tags_v = resolved("tags")
    out_v = resolved("output")

    components = []
    for comp_name in component_order:
        got = sections[f"component.{comp_name}"]
        vals = {key: got.get(key, default)
                for key, (_, _, default) in _COMPONENT_SCHEMA.items()}
        try:
            components.append(PopulationComponent(
                weight=vals["weight"],
                strain=StrainDistribution(vals["strain_shape"],
                                          vals["strain_center"],
                                          vals["strain_fwhm"]),
                t2=vals["t2"],
                t1_ns=vals["t1"],
                dipole=vals["dipole"],
                yield_rule=vals["yield"],
                two_level=vals["two_level"],
            ))
        except InvalidSpec as exc:
            raise SchemaError(str(exc), field=f"component.{comp_name}") from exc

    total = sum(c.weight for c in components)
    if abs(total - 1.0) > 1e-9:
        raise SchemaError(f"component weights must sum to 1, got {total}",
                          field="component.weight")

    try:
        scheme = LevelScheme(scheme_v["center"], scheme_v["ground_splitting"],
                             scheme_v["excited_splitting"])
        strain = StrainModel(strain_v["shift"],
                             strain_v["ground_splitting_shift"],
                             strain_v["excited_splitting_shift"],
                             strain_v["yield_crossover"],
                             strain_v["yield_steepness"],
                             strain_v["bright_yield"])
        laser = LaserSpectrum(laser_v["center"], laser_v["fwhm"])
        frame = grid_v["frame"] if grid_v["frame"] is not None else laser.center_thz
        grid = Grid(grid_v["tau_points"], grid_v["t_points"],
                    grid_v["tau_step"], grid_v["t_step"], frame)
        ensemble = EnsembleSpec(tuple(components))
    except InvalidSpec as exc:
        raise SchemaError(str(exc)) from exc

    return ExperimentConfig(
        scheme=scheme, strain=strain, laser=laser, grid=grid,
        tags=TagSet(tags_v["nu1"], tags_v["nu2"], tags_v["nu3"], tags_v["nu4"]),
        ensemble=ensemble, component_names=tuple(component_order),
        waiting_time_ps=sim_v["waiting_time"], mode=sim_v["mode"],
        noise=sim_v["noise"], seed=sim_v["seed"],
        ensemble_size=sim_v["ensemble_size"],
        out_dir=out_v["directory"], basename=out_v["basename"],
    )


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    values = {
        "scheme": {"center": cfg.scheme.center_thz,
                   "ground_splitting": cfg.scheme.ground_splitting_ghz,
                   "excited_splitting": cfg.scheme.excited_splitting_ghz},
        "strain": {"shift": cfg.strain.shift_thz_per_unit,
                   "ground_splitting_shift": cfg.strain.ground_splitting_ghz_per_unit,
                   "excited_splitting_shift": cfg.strain.excited_splitting_ghz_per_unit,
                   "yield_crossover": cfg.strain.yield_crossover,
                   "yield_steepness": cfg.strain.yield_steepness,
                   "bright_yield": cfg.strain.bright_yield},
        "laser": {"center": cfg.laser.center_thz, "fwhm": cfg.laser.fwhm_thz},
        "grid": {"tau_points": cfg.grid.n_tau, "t_points": cfg.grid.n_t,
                 "tau_step": cfg.grid.tau_step_ps, "t_step": cfg.grid.t_step_ps,
                 "frame": cfg.grid.frame_thz},
        "simulation": {"waiting_time": cfg.waiting_time_ps, "mode": cfg.mode,
                       "noise": cfg.noise, "seed": cfg.seed,
                       "ensemble_size": cfg.ensemble_size},
        "tags": {"nu1": cfg.tags.nu1_mhz, "nu2": cfg.tags.nu2_mhz,
                 "nu3": cfg.tags.nu3_mhz, "nu4": cfg.tags.nu4_mhz},
        "output": {"directory": cfg.out_dir, "basename": cfg.basename},
    }
    lines = []
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, fmt, _default) in schema.items():
            lines.append(f"{key} = {fmt(values[section][key])}")
        lines.append("")
    for name, comp in zip(cfg.component_names, cfg.ensemble.components):
        lines.append(f"[component.{name}]")
        comp_vals = {"weight": comp.weight, "strain_shape": comp.strain.shape,
                     "strain_center": comp.strain.center,
                     "strain_fwhm": comp.strain.fwhm, "t2": comp.t2,
                     "t1": comp.t1_ns, "dipole": comp.dipole,
                     "yield": comp.yield_rule, "two_level": comp.two_level}
        for key, (_, fmt, _default) in _COMPONENT_SCHEMA.items():
            lines.append(f"{key} = {fmt(comp_vals[key])}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
