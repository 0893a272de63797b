import dataclasses
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sivmdcs.config import _SCHEMA, config_hash, parse_config, serialize_config
from sivmdcs.emitter import T2Rule
from sivmdcs.errors import ConfigSyntaxError, SchemaError, SivMdcsError, UnitError
from sivmdcs.reproduce import DEFAULT_CONFIGS, FIG2_HIDDEN_CONFIG, FIG4_HET_CONFIG

MINIMAL = """
[component.only]
weight = 1.0
"""

FULL = """
[scheme]
center = 406.8140 thz
ground_splitting = 59 ghz
excited_splitting = 261 ghz

[strain]
yield_crossover = 0.02
yield_steepness = 4.0

[laser]
center = 406.770 thz
fwhm = 4.14 thz

[grid]
tau_points = 128
t_points = 64
tau_step = 0.5 ps
t_step = 0.25 ps

[simulation]
waiting_time = 0.5 ps
mode = heterodyne
noise = 1.5
seed = 11
ensemble_size = 250

[tags]
nu1 = 80.000 mhz
nu2 = 80.107 mhz
nu3 = 80.214 mhz
nu4 = 80.300 mhz

[component.bright]
weight = 0.3
strain_shape = gaussian
strain_fwhm = 0.028
t2 = 122 ps
t1 = 1.7 ns
yield = strain

[component.hidden]
weight = 0.7
strain_shape = gaussian
strain_fwhm = 1.84
t2 = 120 ps : 0.65, 990 ps : 0.35
t1 = 1.7 ns
yield = 0.9
two_level = true
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.scheme.center_thz == pytest.approx(406.8140)
    assert cfg.laser.fwhm_thz == pytest.approx(4.14)
    assert cfg.grid.n_tau == 512
    assert cfg.grid.frame_thz == pytest.approx(406.770)  # defaults to laser
    assert cfg.mode == "pl"
    assert cfg.component_names == ("only",)
    assert cfg.tags.nu2_mhz == pytest.approx(80.107)


def test_full_config_values_and_units():
    cfg = parse_config(FULL)
    assert cfg.grid.n_tau == 128 and cfg.grid.n_t == 64
    assert cfg.grid.t_step_ps == pytest.approx(0.25)
    assert cfg.mode == "heterodyne"
    assert cfg.noise == pytest.approx(1.5)
    assert cfg.strain.yield_crossover == pytest.approx(0.02)
    bright, hidden = cfg.ensemble.components
    assert bright.weight == pytest.approx(0.3)
    assert bright.t2.kind == "constant"
    assert hidden.t2.kind == "classes"
    assert hidden.t2.values_ps == (120.0, 990.0)
    assert hidden.t2.weights == (0.65, 0.35)
    assert hidden.yield_rule == pytest.approx(0.9)
    assert hidden.two_level


def test_unit_conversion():
    cfg = parse_config("""
[scheme]
ground_splitting = 0.059 thz

[component.x]
weight = 1.0
t2 = 0.122 ns
""")
    assert cfg.scheme.ground_splitting_ghz == pytest.approx(59.0)
    assert cfg.ensemble.components[0].t2.values_ps == (122.0,)


def test_lognormal_t2_rule_parses():
    cfg = parse_config("""
[component.x]
weight = 1.0
t2 = lognormal 300 ps 0.5
""")
    rule = cfg.ensemble.components[0].t2
    assert rule.kind == "lognormal"
    assert rule.values_ps == (300.0,)
    assert rule.log_sigma == pytest.approx(0.5)


def test_serialize_round_trips_to_equal_config():
    for text in (MINIMAL, FULL, *DEFAULT_CONFIGS.values(),
                 FIG2_HIDDEN_CONFIG, FIG4_HET_CONFIG):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


def test_config_hash_tracks_content():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL + "\nt2 = 500 ps\n")
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("""
# leading comment
[component.x]   # trailing comment is part of the header? no: stripped
weight = 1.0  # inline comment

""")
    assert cfg.component_names == ("x",)


@pytest.mark.parametrize("text,err,fragment", [
    ("[nope]\n", SchemaError, "unknown section"),
    ("[grid]\nspacing = 1 ps\n" + MINIMAL, SchemaError, "unknown key"),
    ("[grid]\ntau_points = 8\ntau_points = 9\n" + MINIMAL, SchemaError, "duplicate"),
    ("[component.x]\nweight = 1.0\n[component.x]\n", SchemaError, "duplicate section"),
    ("[laser]\nfwhm = 4.14\n" + MINIMAL, UnitError, "expected '<number> <unit>'"),
    ("[laser]\nfwhm = 4.14 ps\n" + MINIMAL, UnitError, "not a frequency unit"),
    ("[laser]\nfwhm = fast thz\n" + MINIMAL, UnitError, "bad number"),
    ("weight = 1.0\n", ConfigSyntaxError, "outside any"),
    ("[laser]\ncenter\n", ConfigSyntaxError, "expected 'key = value'"),
    ("[component.]\n", SchemaError, "needs a name"),
    ("[simulation]\nmode = lockin\n" + MINIMAL, SchemaError, "not in"),
    ("[simulation]\nseed = 7.5\n" + MINIMAL, SchemaError, "expected an integer"),
    ("[simulation]\nseed = -1\n" + MINIMAL, SchemaError, "non-negative"),
    ("[component.x]\nweight = 1.0\ntwo_level = maybe\n", SchemaError, "expected a boolean"),
    ("[component.x]\nweight = 0.5\n", SchemaError, "sum to 1"),
    ("", SchemaError, "at least one"),
    ("[component.x]\nweight = 1.0\nt2 = 120 ps, 990 ps\n", SchemaError, "needs"),
    ("[component.x]\nweight = 1.0\nt2 = lognormal 300 0.5\n", SchemaError, "lognormal"),
    ("[component.x]\nweight = 1.0\nyield = 1.5\n", SchemaError, "quantum yield"),
    ("[component.x]\nweight = 1.0\nstrain_shape = flat\n", SchemaError, "not in"),
])
def test_rejected_configs(text, err, fragment):
    with pytest.raises(err) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


def test_error_carries_line_number():
    with pytest.raises(SchemaError) as excinfo:
        parse_config("[grid]\ntau_points = x\n")
    assert excinfo.value.line == 2
    assert "line 2" in str(excinfo.value)


def test_default_target_configs_are_valid():
    for name, text in DEFAULT_CONFIGS.items():
        cfg = parse_config(text)
        assert cfg.ensemble.components, name


def test_frame_defaults_to_laser_center():
    cfg = parse_config(MINIMAL + "[laser]\ncenter = 406.9 thz\n")
    assert cfg.grid.frame_thz == cfg.laser.center_thz == 406.9


# config_hash of every built-in config, as first recorded; a change in the
# canonical text (key order, formatting, defaults) shows up here
BUILT_IN_HASHES = {
    "fig1c": "6ee89f074cfef0baf5fd3f8bde27d68e42957528e7d07ad63071ba38d9ce5b1c",
    "fig1d": "ee3d6c7e27c5b20e488827580e375c93556e330405c2df2be60ea94f0dbda524",
    "fig2": "eb21d071c40c6b53a53671550d5aaf81ffb578786820744e7f8d5d189da13bda",
    "fig3": "93c432ca496768b49046676bcad343a62dded69afa277391c55eee7ce4ba0563",
    "fig4": "0b355cb206fa5d0c1c271f62e35cc4554c747e84a0421d54f451e5f9685ab7f1",
    "t1scan": "97c6f0fdede208f22f9a461192c677012560fdcc53897b98ce1a14ef6de52eb8",
    "fig2_hidden": "121bdbe0a3cd19bbfda4663018324f8376000aaae8b1b28c0f4f71806abe4cb0",
    "fig4_het": "46d5e29a18c3df1e1c873eaa2d79bd453191af5f5691919b9c89beea93adea99",
}


def test_built_in_config_hashes_are_pinned():
    texts = {**DEFAULT_CONFIGS, "fig2_hidden": FIG2_HIDDEN_CONFIG,
             "fig4_het": FIG4_HET_CONFIG}
    assert {name: config_hash(parse_config(text))
            for name, text in texts.items()} == BUILT_IN_HASHES


# (section, key) -> (valid non-default value, field it must fill, parsed value),
# written out apart from the schema table so that a row pointing at the
# wrong field fails
KEY_CASES = {
    ("scheme", "center"): ("406.9 thz", "scheme.center_thz", 406.9),
    ("scheme", "ground_splitting"): ("50 ghz", "scheme.ground_splitting_ghz", 50.0),
    ("scheme", "excited_splitting"): ("300 ghz", "scheme.excited_splitting_ghz", 300.0),
    ("strain", "shift"): ("2 thz", "strain.shift_thz_per_unit", 2.0),
    ("strain", "ground_splitting_shift"):
        ("1 ghz", "strain.ground_splitting_ghz_per_unit", 1.0),
    ("strain", "excited_splitting_shift"):
        ("2 ghz", "strain.excited_splitting_ghz_per_unit", 2.0),
    ("strain", "yield_crossover"): ("0.5", "strain.yield_crossover", 0.5),
    ("strain", "yield_steepness"): ("3", "strain.yield_steepness", 3.0),
    ("strain", "bright_yield"): ("0.8", "strain.bright_yield", 0.8),
    ("laser", "center"): ("406.9 thz", "laser.center_thz", 406.9),
    ("laser", "fwhm"): ("2 thz", "laser.fwhm_thz", 2.0),
    ("grid", "tau_points"): ("64", "grid.n_tau", 64),
    ("grid", "t_points"): ("32", "grid.n_t", 32),
    ("grid", "tau_step"): ("0.5 ps", "grid.tau_step_ps", 0.5),
    ("grid", "t_step"): ("0.25 ps", "grid.t_step_ps", 0.25),
    ("grid", "frame"): ("406.5 thz", "grid.frame_thz", 406.5),
    ("simulation", "waiting_time"): ("2 ps", "waiting_time_ps", 2.0),
    ("simulation", "mode"): ("heterodyne", "mode", "heterodyne"),
    ("simulation", "noise"): ("0.5", "noise", 0.5),
    ("simulation", "seed"): ("11", "seed", 11),
    ("simulation", "ensemble_size"): ("50", "ensemble_size", 50),
    ("tags", "nu1"): ("79.5 mhz", "tags.nu1_mhz", 79.5),
    ("tags", "nu2"): ("80.5 mhz", "tags.nu2_mhz", 80.5),
    ("tags", "nu3"): ("81 mhz", "tags.nu3_mhz", 81.0),
    ("tags", "nu4"): ("81.5 mhz", "tags.nu4_mhz", 81.5),
    ("component.NAME", "weight"): ("0.25", "weight", 0.25),
    ("component.NAME", "strain_shape"): ("lorentzian", "strain.shape", "lorentzian"),
    ("component.NAME", "strain_center"): ("0.1", "strain.center", 0.1),
    ("component.NAME", "strain_fwhm"): ("0.05", "strain.fwhm", 0.05),
    ("component.NAME", "t2"): ("300 ps", "t2", T2Rule("constant", (300.0,), (1.0,))),
    ("component.NAME", "t1"): ("2.5 ns", "t1_ns", 2.5),
    ("component.NAME", "dipole"): ("2", "dipole", 2.0),
    ("component.NAME", "yield"): ("0.5", "yield_rule", 0.5),
    ("component.NAME", "two_level"): ("true", "two_level", True),
}


def _leaves(obj, path=""):
    """{dotted field: value} for every field below ``obj`` that is not
    itself a dataclass."""
    if not dataclasses.is_dataclass(obj):
        return {path: obj}
    leaves = {}
    for f in dataclasses.fields(obj):
        leaves.update(_leaves(getattr(obj, f.name), f"{path}.{f.name}".lstrip(".")))
    return leaves


def _render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def test_every_table_key_fills_its_own_field():
    assert {(row.section, row.key) for row in _SCHEMA} == set(KEY_CASES)

    def base():
        # frame given, so that a new laser center leaves it in place; the
        # second component lets the first one's weight move
        return {"grid": {"frame": "406.77 thz"}, "component.first": {},
                "component.second": {"weight": "0.0"}}

    before = parse_config(_render(base()))
    for (section, key), (text, field, expected) in KEY_CASES.items():
        in_component = section == "component.NAME"
        sections = base()
        sections.setdefault("component.first" if in_component else section, {})[key] = text
        if key == "weight":
            sections["component.second"][key] = "0.75"
        cfg = parse_config(_render(sections))
        old, new = ((before.ensemble.components[0], cfg.ensemble.components[0])
                    if in_component else (before, cfg))
        assert attrgetter(field)(new) == pytest.approx(expected), key
        old_leaves = _leaves(old)
        changed = {name for name, value in _leaves(new).items()
                   if value != old_leaves[name]}
        assert changed, key
        assert all(name == field or name.startswith(field + ".") for name in changed), \
            (key, changed)
        assert parse_config(serialize_config(cfg)) == cfg, key


_KEYS = sorted({row.key for row in _SCHEMA}) + ["bogus"]
_SECTION_NAMES = ["scheme", "strain", "laser", "grid", "simulation", "tags",
                  "output", "component.a", "component.b", "component.", "nope"]
_VALUES = st.one_of(
    st.sampled_from(["1", "0.5", "0", "-1", "7.5", "nan", "inf", "1e308", "true",
                     "maybe", "strain", "pl", "heterodyne", "gaussian", "delta",
                     "lorentzian", "lognormal 300 ps 0.5", "lognormal 300 0.5",
                     "120 ps : 0.5, 990 ps : 0.5", "120 ps, 990 ps", ""]),
    st.builds("{} {}".format,
              st.one_of(st.floats(), st.integers(-10**6, 10**6)),
              st.sampled_from(["thz", "ghz", "mhz", "ps", "ns", "us", "s", "THz"])),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds("[{}]".format, st.one_of(st.sampled_from(_SECTION_NAMES),
                                       st.text(max_size=10))),
    st.builds("{} = {}".format, st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)),
              _VALUES),
    st.text(max_size=20),
)


# edits to a valid config: a key's value replaced, or a line inserted
_EDITS = st.lists(st.one_of(st.tuples(st.just("value"), st.integers(0, 99), _VALUES),
                            st.tuples(st.just("line"), st.integers(0, 99), _LINES)),
                  max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([MINIMAL, FULL]), _EDITS)
def test_config_text_raises_only_package_errors(base, edits):
    lines = base.splitlines()
    for kind, pos, text in edits:
        pos %= len(lines)
        if kind == "value" and "=" in lines[pos]:
            lines[pos] = lines[pos].split("=")[0] + "= " + text
        else:
            lines.insert(pos, text)
    try:
        cfg = parse_config("\n".join(lines))
    except SivMdcsError:
        return
    assert parse_config(serialize_config(cfg)) == cfg
