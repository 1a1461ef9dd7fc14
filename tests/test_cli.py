import contextlib
import csv
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import geometric_series
from shearmaps import (
    DEFAULT_R_GRID,
    ConfigError,
    SamplerConfig,
    default_alpha_grid,
    dump_series_spec,
    eq1_scan,
    load_series_spec,
    shear_from_series,
    starlike_scan,
)
from shearmaps.cli import main, parse_grid, parse_probe


@pytest.fixture()
def geo_spec(tmp_path):
    path = tmp_path / "geo.json"
    path.write_text(dump_series_spec(geometric_series()))
    return str(path)


@pytest.fixture()
def a27_spec(tmp_path):
    path = tmp_path / "a27.json"
    path.write_text('{"start": 2, "coeffs": [[2.7, 0.0]]}')
    return str(path)


def read_csv_report(path):
    comments, rows = [], []
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = []
    for line in lines:
        (comments if line.startswith("#") else data).append(line)
    rows = list(csv.DictReader(data))
    return comments, rows


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_probe_forms():
    assert parse_probe("0.5,-0.25") == (0j, 0.5 - 0.25j)
    assert parse_probe("0.1,0.2;0.3,0.4") == (0.1 + 0.2j, 0.3 + 0.4j)
    for bad in ("0.5", "1,2,3", "a,b", "1,2;3,4;5,6"):
        with pytest.raises(ConfigError):
            parse_probe(bad)


def test_parse_grid_forms():
    assert parse_grid("0.0:1.0:3") == (0.0, 0.5, 1.0)
    assert len(parse_grid("0.1:0.9")) == 6  # default count
    assert parse_grid("0.7:0.7:1") == (0.7,)
    for bad in ("0.5", "a:b", "0:1:0", "0:1:2:3", "inf:1:2"):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def test_parse_grid_refuses_overflowing_span_and_huge_count():
    """B - A past double range would make linspace return NaN and inf with
    RuntimeWarnings; a count past MAX_POINTS would crash numpy."""
    for text in ("-1e308:1e308:3", "1e308:-1e308:4", "-1.7e308:1.7e308:1"):
        with pytest.raises(ConfigError, match=re.escape(repr(text))):
            parse_grid(text)
    assert parse_grid("-8e307:8e307:3") == (-8e307, 0.0, 8e307)
    # 3 * (MAX / 3) rounds past double range inside linspace
    top = parse_grid(f"0:{sys.float_info.max!r}:4")
    assert all(map(math.isfinite, top)) and top[-1] == sys.float_info.max
    with pytest.raises(ConfigError, match=str(10**30)):
        parse_grid(f"0:1:{10**30}")


def test_counterexample_overflowing_grid_exits_2_without_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["counterexample", "--grid=1e308:-1e308:4"]) == 2
    assert capsys.readouterr().err == (
        "shearmaps: error: grid '1e308:-1e308:4': the distance between its endpoints overflows\n"
    )


# ---------------------------------------------------------------------------
# subcommands


def test_certify_csv(geo_spec, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["certify", "--input", geo_spec, "--out", str(out)]) == 0
    comments, rows = read_csv_report(out)
    assert "# subcommand=certify" in comments
    assert [r["kind"] for r in rows] == ["Starlike", "Starshapelike", "Embeddable"]
    assert all(r["status"] == "Certified" for r in rows)
    assert rows[2]["degree"] == "2"
    assert rows[0]["degree"] == ""  # degree only applies to embeddability

    # stdout emits the same bytes as --out
    assert main(["certify", "--input", geo_spec]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_certify_overflowing_sum_is_starshapelike(tmp_path, capsys):
    """a_2 = 1e308 (1 + i) has the finite S1 = 2 sqrt(2) 1e308, past double
    range: the map is starshapelike, with margin inf."""
    spec = tmp_path / "huge.json"
    spec.write_text('{"start": 2, "coeffs": [[1e308, 1e308]]}')
    assert main(["certify", "--input", str(spec)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert "Starshapelike,Certified,,inf" in rows
    assert "Embeddable,Certified,2,1" in rows


def test_certify_json(geo_spec, tmp_path):
    out = tmp_path / "report.json"
    assert main(["certify", "--input", geo_spec, "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["subcommand"] == "certify"
    assert len(doc["rows"]) == 3
    assert doc["rows"][2]["degree"] == 2
    assert doc["rows"][0]["degree"] is None


def test_embed_subcommand(geo_spec, tmp_path):
    out = tmp_path / "embed.csv"
    assert main(["embed", "--input", geo_spec, "--out", str(out)]) == 0
    _, rows = read_csv_report(out)
    assert len(rows) == 1
    assert rows[0]["kind"] == "Embeddable"
    assert rows[0]["degree"] == "2"
    assert float(rows[0]["margin"]) == 0.0


def test_starlike_scan_violation_exit_code(a27_spec, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["starlike-scan", "--input", a27_spec, "--radius", "0.98",
                 "--s-grid", "4", "--t-grid", "5", "--phase-grid", "4",
                 "--random", "100", "--out", str(out)])
    assert code == 1
    _, rows = read_csv_report(out)
    assert rows[0]["violation"] == "true"
    assert float(rows[0]["extremum"]) < -1e-12


def test_starlike_scan_clean_exit_code(geo_spec, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["starlike-scan", "--input", geo_spec, "--radius", "0.9",
                 "--s-grid", "4", "--t-grid", "5", "--phase-grid", "4",
                 "--random", "100", "--out", str(out)])
    assert code == 0
    _, rows = read_csv_report(out)
    assert rows[0]["violation"] == "false"


def test_eq1_scan_cli_roundtrip(geo_spec, tmp_path):
    out = tmp_path / "eq1.csv"
    code = main(["eq1-scan", "--input", geo_spec, "--radius", "0.9",
                 "--grid", "0.25:1.0:4", "--s-grid", "4", "--t-grid", "5",
                 "--phase-grid", "2", "--random", "50", "--out", str(out)])
    assert code == 0
    comments, rows = read_csv_report(out)
    assert any(c.startswith("# alphas=") for c in comments)
    assert "alpha" in rows[0]
    assert rows[0]["violation"] == "false"


def test_eq1_scan_json_handles_non_finite(tmp_path):
    hot = 1.0 - 0.012 * complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    probe = f"0.1,0.0;{hot.real!r},{hot.imag!r}"
    out = tmp_path / "eq1.json"
    code = main(["eq1-scan", "--builtin", "counterexample", "--radius", "0.5",
                 "--grid", "0.5:1.0:2", "--s-grid", "2", "--t-grid", "3",
                 "--phase-grid", "2", "--random", "10", "--probe", probe,
                 "--format", "json", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["extremum"] == "-inf"  # certified sign, out of range
    assert doc["rows"][0]["violation"] is True


def test_growth_scan_cli(geo_spec, tmp_path):
    out = tmp_path / "growth.csv"
    code = main(["growth-scan", "--input", geo_spec, "--grid", "0.1:0.9:5",
                 "--angular", "64", "--out", str(out)])
    assert code == 0
    _, rows = read_csv_report(out)
    assert len(rows) == 5
    assert all(r["conforms"] == "true" for r in rows)


def test_growth_scan_uncertified_is_config_error(a27_spec, tmp_path, capsys):
    code = main(["growth-scan", "--input", a27_spec, "--out",
                 str(tmp_path / "g.csv")])
    assert code == 2
    assert "uncertified" in capsys.readouterr().err.lower()


def test_counterexample_cli_verdict_trailer(tmp_path):
    out = tmp_path / "ce.csv"
    assert main(["counterexample", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-2].startswith("# verdict=no constant C")
    assert lines[-1] == "# affirmative=true"
    _, rows = read_csv_report(out)
    assert len(rows) == 6


def test_counterexample_custom_grid(tmp_path):
    out = tmp_path / "ce.json"
    assert main(["counterexample", "--grid", "0.6:0.9:4", "--c-report", "2",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [row["r"] for row in doc["rows"]] == pytest.approx([0.6, 0.7, 0.8, 0.9])
    assert doc["affirmative"] == "true"


def test_eval_cli_matches_library(geo_spec, tmp_path):
    from conftest import geometric_shear
    from shearmaps import starlike_quantity
    from shearmaps.growth import shear_opnorm

    out = tmp_path / "eval.csv"
    assert main(["eval", "--input", geo_spec, "--probe", "0.1,0.2;0.3,-0.1",
                 "--out", str(out)]) == 0
    _, rows = read_csv_report(out)
    f = geometric_shear()
    p = (0.1 + 0.2j, 0.3 - 0.1j)
    w1, _ = f.eval(p)
    assert float(rows[0]["f1_re"]) == pytest.approx(w1.real, rel=1e-15)
    assert float(rows[0]["f1_im"]) == pytest.approx(w1.imag, rel=1e-15)
    assert float(rows[0]["opnorm"]) == pytest.approx(shear_opnorm(f, p), rel=1e-15)
    assert float(rows[0]["starlike_quantity"]) == pytest.approx(
        starlike_quantity(f, p), rel=1e-15
    )


def test_eval_truncate_on_series(geo_spec, tmp_path):
    out = tmp_path / "eval.csv"
    assert main(["eval", "--input", geo_spec, "--truncate", "2",
                 "--probe", "0.0,0.0;0.5,0.0", "--out", str(out)]) == 0
    _, rows = read_csv_report(out)
    # degree-2 head is 0.25 z^2, so f1 = 0 + 0.25 * 0.25
    assert float(rows[0]["f1_re"]) == pytest.approx(0.0625, rel=1e-15)


# ---------------------------------------------------------------------------
# failure modes -> exit 2


def test_exit_2_cases(tmp_path, geo_spec, capsys):
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text('{"start": 3}')
    cases = [
        ["certify"],                                      # no source
        ["certify", "--input", geo_spec, "--builtin", "counterexample"],
        ["certify", "--builtin", "mystery"],
        ["certify", "--input", str(tmp_path / "missing.json")],
        ["certify", "--input", str(bad_spec)],
        ["eval", "--input", geo_spec],                    # no probes
        ["eval", "--input", geo_spec, "--probe", "0.9,0.9"],  # outside ball
        ["eval", "--builtin", "counterexample", "--probe", "0.1,0.0",
         "--truncate", "3"],                              # closed form
        ["starlike-scan", "--input", geo_spec, "--radius", "1.5"],
        ["eq1-scan", "--input", geo_spec, "--grid", "0.5:2.0:3"],
        ["counterexample", "--grid", "0.9:0.6:2"],
        ["counterexample", "--c-report", "0.1"],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.strip(), argv


_TINY = ["--s-grid", "3", "--t-grid", "3", "--phase-grid", "2", "--random", "20"]
_HUGE = str(10**30)


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["starlike-scan", "--seed", "-1"], None),
        (["eval", "--probe", "1e308,0"], None),
        (["certify"], '{"start": 2, "coeffs": [[1%s, 0]]}' % ("0" * 400)),
        (["certify"], '{"start": 2, "coeffs": [[0.1, 0]], "tail_bound": 1%s}' % ("0" * 400)),
        (["certify"], '{"start": 2, "coeffs": [[%s, 0]]}' % ("1" * 5000)),
        (["certify"], "[" * 100_000 + "]" * 100_000),
        # every sample whose value depends on g lies past the screening limit
        (["starlike-scan", *_TINY], '{"start": 2, "coeffs": [[1e300, 0]]}'),
        (["eq1-scan", *_TINY], '{"start": 2, "coeffs": [[1e300, 0]]}'),
        (["starlike-scan", *_TINY], '{"start": 2, "coeffs": [[1e308, 1e308]]}'),
        (["eq1-scan", *_TINY], '{"start": 2, "coeffs": [[1e308, 1e308]]}'),
        (["counterexample", "--c-report", "nan"], None),
        (["counterexample", "--c-report", "inf"], None),
        # allocations past 2^50 bytes, which no host can satisfy
        (["growth-scan", "--angular", "1000000000000000"], None),
        (["growth-scan", "--grid", "0.1:0.9:1000000000000000"], None),
        (["eq1-scan", "--s-grid", "100000", "--t-grid", "100000", "--phase-grid", "100000"],
         None),
        # alpha^2 underflows to 0, so 1/alpha^2 is not a double
        (["eq1-scan", *_TINY, "--grid", "1e-320:0.75:2"], None),
        # counts past numpy's largest array, refused before any allocation
        (["growth-scan", "--grid", f"0.1:0.9:{_HUGE}"], None),
        (["growth-scan", "--angular", _HUGE], None),
        (["starlike-scan", "--s-grid", _HUGE], None),
        (["starlike-scan", "--t-grid", _HUGE], None),
        (["eq1-scan", "--phase-grid", _HUGE], None),
        (["eq1-scan", "--random", _HUGE], None),
        (["eq1-scan", *_TINY, "--grid", f"0.1:0.9:{_HUGE}"], None),
        (["counterexample", "--grid", f"0.6:0.9:{_HUGE}"], None),
        # the distance between the endpoints overflows
        (["growth-scan", "--grid=-1e308:1e308:3"], None),
        # a coefficient that is not finite, refused by CoefficientSeries
        (["certify"], '{"start": 2, "coeffs": [[Infinity, 0]]}'),
        (["certify"], '{"start": 2, "coeffs": [[NaN, 0]]}'),
        # a file that is not UTF-8
        (["certify"], b'\xff{"start": 2, "coeffs": []}'),
    ],
    ids=["negative-seed", "overflowing-probe", "huge-int-coefficient",
         "huge-int-tail-bound", "int-past-digit-limit", "deep-nesting",
         "no-information-starlike", "no-information-eq1",
         "overflowing-a2-starlike", "overflowing-a2-eq1",
         "nan-c-report", "inf-c-report",
         "oversized-angular", "oversized-radius-grid", "oversized-sampler",
         "tiny-alpha",
         "huge-radius-grid", "huge-angular", "huge-s-grid", "huge-t-grid",
         "huge-phase-grid", "huge-random", "huge-alpha-grid", "huge-counterexample-grid",
         "overflowing-grid-span", "infinite-coefficient", "nan-coefficient",
         "not-utf8"],
)
def test_hostile_inputs_exit_2(argv, spec, geo_spec, tmp_path, capsys):
    """Exit 1 means a finding; inputs that cannot be evaluated, and scans
    that evaluated nothing depending on g, are errors."""
    path = geo_spec
    if spec is not None:
        path = tmp_path / "hostile.json"
        path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
    source = [] if argv[0] == "counterexample" else ["--input", str(path)]
    code = main(argv[:1] + source + argv[1:])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("shearmaps: error:")
    if any(_HUGE in a for a in argv):
        assert _HUGE in err  # the message names the refused count


def test_eq1_grid_without_alpha_below_one_exits_2(geo_spec, capsys):
    """At alpha = 1 the residual is 1 - |z|^2 for every map, so a grid of
    alpha = 1 alone refuses nothing yet evaluates nothing that depends on g."""
    assert main(["eq1-scan", "--input", geo_spec, *_TINY, "--grid", "1:1:1"]) == 2
    assert re.match(
        "shearmaps: error: the alpha grid has no alpha below 1", capsys.readouterr().err
    )


_FUZZ_COMMANDS = (
    ["certify"],
    ["starlike-scan", *_TINY],
    ["eq1-scan", *_TINY],
    ["growth-scan", "--grid", "0.1:0.9:3", "--angular", "16"],
    ["eval", "--probe", "0.1,0.2;0.3,-0.4", "--probe", "0.0,0.0;-0.95,0.05"],
)


@settings(max_examples=50, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(-300.0, 308.0), st.floats(0.0, 2.0 * math.pi)),
        min_size=1, max_size=6,
    ),
)
# coefficient sums whose partial sums overflow inside math.fsum
@example(terms=[(0.0, 0.0), (307.0, 0.0), (307.75, 0.0)])
def test_exit_codes_on_fuzzed_specs(terms):
    """Any spec with coefficients from 1e-300 to 1e308 ends in exit 0, 1 or
    2 without an exception, and exit 1 always comes with a finding row."""
    coeffs = [[10.0**e * math.cos(t), 10.0**e * math.sin(t)] for e, t in terms]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps({"start": 2, "coeffs": coeffs}))
        for argv in _FUZZ_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv[:1] + ["--input", str(path), "--format", "json"] + argv[1:])
            assert code in (0, 1, 2), argv
            if code == 1:
                rows = json.loads(out.getvalue())["rows"]
                assert any(r.get("violation") is True or r.get("conforms") is False
                           for r in rows), argv


_OUTPUT_OPTIONS = {"--out", "--format"}
_SOURCE_OPTIONS = {"--input", "--builtin"}
_SAMPLER_OPTIONS = {"--radius", "--s-grid", "--t-grid", "--phase-grid", "--random", "--seed",
                    "--probe", "--trace"}
_OPTIONS = {
    "certify": _SOURCE_OPTIONS | {"--n-max"} | _OUTPUT_OPTIONS,
    "embed": _SOURCE_OPTIONS | {"--n-max"} | _OUTPUT_OPTIONS,
    "starlike-scan": _SOURCE_OPTIONS | _SAMPLER_OPTIONS | _OUTPUT_OPTIONS,
    "eq1-scan": _SOURCE_OPTIONS | {"--grid"} | _SAMPLER_OPTIONS | _OUTPUT_OPTIONS,
    "growth-scan": _SOURCE_OPTIONS | {"--grid", "--angular"} | _OUTPUT_OPTIONS,
    "counterexample": {"--grid", "--c-report"} | _OUTPUT_OPTIONS,
    "eval": _SOURCE_OPTIONS | {"--probe", "--truncate"} | _OUTPUT_OPTIONS,
}


_HOSTILE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-200, 1e308,
                     0.3, 0.9, 1.0]),
    st.floats(),
)
_HOSTILE_INTS = st.sampled_from([-1, 0, 1, 2, 10**30])
_FLAG_FUZZ_SPECS = {
    "geo.json": dump_series_spec(geometric_series()),
    "a27.json": '{"start": 2, "coeffs": [[2.7, 0.0]]}',
}


@pytest.fixture(scope="module")
def flag_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("flag-fuzz")
    for name, text in _FLAG_FUZZ_SPECS.items():
        (path / name).write_text(text)
    return path


@st.composite
def _flag_argv(draw):
    """One invocation of a random subcommand with hostile flag values; every
    flag is optional, and the sampler, grids and circles stay small."""
    sub = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[sub]
    argv = [sub]

    def maybe(flag, values):
        if flag in options and draw(st.booleans()):
            argv.append(f"{flag}={draw(values)!r}")

    def probe():
        pairs = draw(st.lists(st.tuples(_HOSTILE_FLOATS, _HOSTILE_FLOATS), min_size=1, max_size=2))
        return ";".join(f"{re!r},{im!r}" for re, im in pairs)

    if sub != "counterexample":
        argv += draw(st.sampled_from(
            [["--input", "geo.json"], ["--input", "a27.json"], ["--builtin", "counterexample"]]
        ))
    maybe("--radius", _HOSTILE_FLOATS)
    for flag in ("--s-grid", "--t-grid", "--phase-grid"):
        maybe(flag, st.integers(-1, 3))
    maybe("--random", st.sampled_from([-1, 0, 1, 20]))
    for flag in ("--seed", "--n-max", "--truncate"):
        maybe(flag, _HOSTILE_INTS)
    maybe("--angular", st.sampled_from([-1, 0, 1, 16]))
    maybe("--c-report", _HOSTILE_FLOATS)
    if "--grid" in options and draw(st.booleans()):
        lo, hi = draw(_HOSTILE_FLOATS), draw(_HOSTILE_FLOATS)
        argv.append(f"--grid={lo!r}:{hi!r}:{draw(st.integers(-1, 4))}")
    if "--probe" in options:
        argv += [f"--probe={probe()}" for _ in range(draw(st.integers(0, 2)))]
    return argv + ["--format", "json"]


@settings(max_examples=150, deadline=None)
@given(argv=_flag_argv())
# alpha^2 underflows: a ZeroDivisionError traceback before 1/alpha^2 was checked
@example(argv=["eq1-scan", "--builtin", "counterexample", "--random=20", "--grid=1e-320:0.75:2",
               "--format", "json"])
# the last grid point overflowed inside numpy.linspace with a RuntimeWarning
@example(argv=["eq1-scan", "--input", "geo.json", "--grid=0.0:1.7976931348623157e+308:4",
               "--format", "json"])
def test_exit_codes_on_fuzzed_flags(flag_fuzz_dir, argv):
    """Hostile flag values on every subcommand end in exit 0, 1 or 2: 2 only
    with an error message, 1 only with a finding row."""
    argv = [str(flag_fuzz_dir / a) if a in _FLAG_FUZZ_SPECS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith(("shearmaps: error:", "usage:")), argv
    if code == 1:
        rows = json.loads(out.getvalue())["rows"]
        assert any(r.get("violation") is True or r.get("conforms") is False for r in rows), argv


def test_argparse_failures_return_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    """The top-level help lists every subcommand, and each subcommand's help
    shows exactly its own options."""
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    assert all(sub in text for sub in _OPTIONS)
    for sub, options in _OPTIONS.items():
        assert main([sub, "--help"]) == 0
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert shown - {"--help"} == options, sub


def test_help_shows_the_default_grids(capsys):
    """The --grid defaults that the help states are the ones the code uses:
    default_alpha_grid() for eq1-scan, DEFAULT_R_GRID for counterexample."""
    assert main(["eq1-scan", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    shown = re.search(r"alpha grid \(default (\S+)\)", text).group(1)
    assert parse_grid(shown) == default_alpha_grid()
    assert main(["counterexample", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    shown = re.search(r"default the radii ([0-9., ]+[0-9])", text).group(1)
    assert tuple(float(r) for r in shown.split(", ")) == DEFAULT_R_GRID


@pytest.mark.parametrize("sub", ["starlike-scan", "eq1-scan"])
def test_scan_without_sampler_flags_uses_sampler_defaults(sub, geo_spec, capsys):
    """The CLI's sampler defaults are SamplerConfig's own."""
    scan = eq1_scan if sub == "eq1-scan" else starlike_scan
    f = shear_from_series(load_series_spec(geo_spec), label="geo.json")
    report = scan(f, sampler=SamplerConfig())
    assert main([sub, "--input", geo_spec, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key, value in report.config:
        assert doc["config"][key] == value, key
    z1, z2 = report.witness.as_tuple()
    row = doc["rows"][0]
    assert [row["extremum"], row["witness_z1_re"], row["witness_z1_im"], row["witness_z2_re"],
            row["witness_z2_im"], row["samples"], row["refused"], row["violation"]] == [
        report.extremum, z1.real, z1.imag, z2.real, z2.imag, report.samples,
        report.refused, report.violation,
    ]


_NAME_CHARS = st.characters(blacklist_characters="/\0", blacklist_categories=("Cs",))


@pytest.fixture(scope="module")
def name_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("names")


@settings(max_examples=40, deadline=None)
@given(
    name=st.text(_NAME_CHARS, min_size=1, max_size=40).filter(
        lambda s: s.isprintable() and s not in (".", "..")
    ),
    sub=st.sampled_from(["starlike-scan", "eq1-scan"]),
)
@example(name="a;seed=7.json", sub="starlike-scan")
@example(name="x=y.json", sub="eq1-scan")
def test_scan_header_is_the_report_config(name_dir, name, sub):
    """The CSV header rows are the subcommand and then the report's own
    config pairs; the input is the file name verbatim, whatever ; or = it
    holds."""
    path = name_dir / name
    path.write_text(dump_series_spec(geometric_series()))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert main([sub, "--input", str(path), *_TINY]) == 0
    finally:
        path.unlink()
    scan = eq1_scan if sub == "eq1-scan" else starlike_scan
    sampler = SamplerConfig(n_radial=3, n_split=3, n_phase=2, n_random=20)
    report = scan(shear_from_series(geometric_series(), label=name), sampler=sampler)
    lines = out.getvalue().split("\n")
    columns = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[columns].startswith("extremum,")
    assert all(line.startswith("# ") for line in lines[:columns])
    header = [tuple(line[2:].split("=", 1)) for line in lines[:columns]]
    assert header == [("subcommand", sub), *report.config]
    assert dict(header)["input"] == name


@pytest.mark.parametrize("argv", [["certify"], ["starlike-scan", *_TINY]], ids=lambda a: a[0])
def test_non_printable_file_name_exits_2(argv, tmp_path, capsys):
    """A line break in the input's base name would put a bare line into the
    CSV header, so a name that is not printable is refused, quoted."""
    name = "nl\nx.json"
    (tmp_path / name).write_text(dump_series_spec(geometric_series()))
    assert main(argv[:1] + ["--input", str(tmp_path / name)] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"shearmaps: error: input file name {name!r} is not printable\n"


def test_cli_runs_are_byte_identical(a27_spec, tmp_path):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.csv"
        assert main(["starlike-scan", "--input", a27_spec, "--radius", "0.98",
                     "--s-grid", "4", "--t-grid", "5", "--phase-grid", "4",
                     "--random", "200", "--out", str(out)]) == 1
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
