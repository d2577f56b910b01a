"""End-to-end tests of the command line interface."""

import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wojcikwalk import cli, walk


def run_cli(argv, capsys, main=cli.main):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(text):
    """Split CLI CSV output into (meta dict, header, data rows)."""
    lines = text.splitlines()
    meta = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    header = lines[i]
    rows = [line.split(",") for line in lines[i + 1 :]]
    return meta, header, rows


def checksum_of(rows):
    payload = "\n".join(",".join(f"{float(v):.17g}" for v in row) for row in rows)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_csv_shape(capsys):
    code, out, _ = run_cli(["simulate", "--phi", "0.5", "--steps", "100"], capsys)
    assert code == 0
    meta, header, rows = csv_body(out)
    assert meta == {}
    assert header == "x_over_t,scaled_prob,density"
    assert len(rows) == 101  # one row per populated-parity site
    ratios = [float(r[0]) for r in rows]
    assert ratios[0] == -1.0 and ratios[-1] == 1.0
    # scaled masses sum back to the full probability times t
    assert abs(sum(float(r[1]) for r in rows) / 100.0 - 1.0) <= 1e-10


def test_simulate_is_bit_stable(capsys):
    args = ["simulate", "--phi", "0.3", "--init", "0.6,0.1,0.8,-0.4", "--steps", "60"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_simulate_single_step(capsys):
    code, out, _ = run_cli(["simulate", "--steps", "1"], capsys)
    assert code == 0
    _, _, rows = csv_body(out)
    assert len(rows) == 2
    assert [float(r[0]) for r in rows] == [-1.0, 1.0]


def test_simulate_json_schema_and_checksum(capsys):
    code, out, _ = run_cli(
        ["simulate", "--phi", "0.5", "--steps", "8", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "metadata", "rows"}
    assert payload["config"]["command"] == "simulate"
    assert payload["config"]["steps"] == 8
    meta = payload["metadata"]
    assert meta["columns"] == ["x_over_t", "scaled_prob", "density"]
    assert meta["rows"] == len(payload["rows"]) == 9
    assert abs(meta["C"] + meta["integral"] - 1.0) <= 1e-6
    assert abs(meta["C"] - 0.8) <= 1e-6
    assert meta["checksum"] == checksum_of(payload["rows"])


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_csv_grid(capsys):
    code, out, _ = run_cli(["density", "--phi", "0.5", "--bins", "50"], capsys)
    assert code == 0
    meta, header, rows = csv_body(out)
    assert header == "x,w,f_K,density"
    assert len(rows) == 50
    assert set(meta) == {"C", "integral", "total", "checksum"}
    assert abs(float(meta["C"]) - 0.8) <= 1e-6
    assert abs(float(meta["total"]) - 1.0) <= 1e-6
    assert meta["checksum"] == checksum_of(rows)
    for row in rows:
        x, w, f_k, dens = (float(v) for v in row)
        assert abs(dens - w * f_k) <= 1e-12
    # grid midpoints stay strictly inside the support
    assert all(abs(float(r[0])) < cli.SUPPORT_RADIUS for r in rows)


def test_density_json_metadata(capsys):
    code, out, _ = run_cli(
        ["density", "--phi", "0.25", "--bins", "20", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    meta = payload["metadata"]
    assert meta["rows"] == 20
    assert abs(meta["C"] - 0.4) <= 1e-6
    assert abs(meta["C"] + meta["integral"] - meta["total"]) <= 1e-15


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reference_configuration_passes(capsys):
    code, out, _ = run_cli(["verify", "--phi", "0.5", "--steps", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "OK"
    names = ("fixture_reduction", "mass_decomposition", "spectral_oracle", "path_sum")
    for name in names:
        assert any(line.startswith("PASS") and name in line for line in lines[:-1])


def test_verify_json_report(capsys):
    code, out, _ = run_cli(
        ["verify", "--phi", "0.25", "--steps", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["passed"] is True
    assert payload["metadata"]["failed"] == 0
    statuses = {row["name"]: row["status"] for row in payload["rows"]}
    assert statuses["fixture_reduction"] == "pass"


def test_verify_skips_fixture_check_off_reference(capsys):
    code, out, _ = run_cli(["verify", "--phi", "0.37", "--steps", "5"], capsys)
    assert code == 0
    assert any(
        line.startswith("SKIPPED") and "fixture_reduction" in line
        for line in out.splitlines()
    )


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.spectral, "weight_from_residues", lambda x, params: 0.123)
    code, out, _ = run_cli(["verify", "--phi", "0.5", "--steps", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL") and "spectral_oracle" in line for line in lines)
    assert lines[-1] == "1 CHECK(S) FAILED"


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_excludes_atom_window(capsys):
    code, out, err = run_cli(
        ["converge", "--phi", "0.5", "--steps", "400", "--bins", "30", "--tol", "1e-6"],
        capsys,
    )
    assert code == 0
    assert "total_abs_deviation=" in err
    meta, header, rows = csv_body(out)
    assert header.startswith("bin_lo,bin_hi,bin_mid,")
    assert int(float(meta["kept_bins"])) == len(rows)
    assert float(meta["total_abs_deviation"]) >= 0.0
    window = cli.ATOM_WINDOW
    for row in rows:
        lo, hi = float(row[0]), float(row[1])
        assert hi < -window or lo > window  # no overlap with the atom window
        got_dev = abs(float(row[3]) - float(row[4]))
        assert abs(float(row[5]) - got_dev) <= 1e-12


def test_converge_json_deviation_adds_up(capsys):
    code, out, _ = run_cli(
        [
            "converge",
            "--phi",
            "0.5",
            "--steps",
            "300",
            "--bins",
            "25",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    total = sum(row[5] for row in payload["rows"])
    assert abs(total - payload["metadata"]["total_abs_deviation"]) <= 1e-12


# ---------------------------------------------------------------------------
# validation and process behavior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--phi", "1.2"],
        ["simulate", "--phi", "-0.1"],
        ["simulate", "--init", "1,0"],
        ["simulate", "--init", "1,0,x,0"],
        ["simulate", "--init", "0.9,0,0,0"],  # norm off by far more than 1e-6
        ["simulate", "--init", "-1,0,0,0"],
        ["simulate", "--steps", "0"],
        ["converge", "--steps", "0"],
        ["density", "--steps", "-1"],
        ["simulate", "--bins", "1"],
        ["simulate", "--tol", "0"],
        ["simulate", "--tol", "0.5"],
        ["nonsense"],
        ["density", "--init", "nan,0,nan,0"],
        ["density", "--init", "1,nan,0,0"],
        ["density", "--init", "0.6,inf,0.8,0"],
        ["simulate", "--init", "1,0,0,-inf"],
        ["verify", "--init", "inf,0,0,0"],
        ["density", "--phi", "nan"],
        ["density", "--phi", "inf"],
        ["density", "--phi=-inf"],
        ["density", "--tol", "nan"],
        ["density", "--tol", "inf"],
        ["density", "--tol=-inf"],
        ["density", "--init", "0.6,0,-0.8,0"],  # unit norm, negative b
    ],
)
def test_invalid_arguments_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["density", "--phi", "1.2"], "phi must lie in [0, 1)"),
        (["density", "--init", "1,nan,0,0"], "phases must be finite"),
        (["density", "--init", "0.6,0,-0.8,0"], "a, b must be nonnegative"),
    ],
)
def test_invalid_configuration_names_the_broken_rule(argv, rule, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert rule in capsys.readouterr().err


def test_slightly_denormalized_init_warns_and_runs(capsys):
    a = 1.0 + 3e-8  # squared norm off by ~6e-8: renormalize, do not reject
    with pytest.warns(UserWarning, match="renormalizing"):
        code, out, _ = run_cli(
            ["simulate", "--init", f"{a!r},0,0,0", "--steps", "4"], capsys
        )
    assert code == 0


@pytest.mark.parametrize(
    "init",
    [
        "1.0000000001,0,0,0",  # squared norm off by 2e-10
        "0.70710678118,0,0.70710678118,0",  # 11 digits: off by 6e-11
    ],
)
def test_init_within_warning_threshold_runs_silently(init, capsys):
    # below the 1e-9 warning threshold --init is renormalized without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["verify", "--init", init, "--steps", "4"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "OK"


@pytest.mark.parametrize("command", ["simulate", "density", "verify", "converge"])
def test_steps_above_the_cap_exit_two(command, capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked past the step cap")

    monkeypatch.setattr(cli.walk, "evolve", no_walk)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--steps", str(walk.MAX_STEPS + 1)])
    assert excinfo.value.code == 2
    assert f"step cap {walk.MAX_STEPS}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "density", "verify", "converge"])
def test_bins_above_the_cap_exit_two(command, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("worked past the bin cap")

    monkeypatch.setattr(cli.walk, "evolve", no_work)
    monkeypatch.setattr(cli.limit, "weight_coefficients", no_work)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--bins", str(cli.MAX_BINS + 1)])
    assert excinfo.value.code == 2
    assert f"bin cap {cli.MAX_BINS}" in capsys.readouterr().err


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["density", "--bins", "20", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    _, header, rows = csv_body(text)
    assert header == "x,w,f_K,density"
    assert len(rows) == 20


def test_unwritable_output_path_exits_two(capsys):
    code, _, err = run_cli(
        ["density", "--bins", "20", "--out", "/nonexistent/dir/out.csv"], capsys
    )
    assert code == 2
    assert "cannot write output" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wojcikwalk", "verify", "--phi", "0.5", "--steps", "4"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "OK"


# ---------------------------------------------------------------------------
# byte identity with the frozen reference package
# ---------------------------------------------------------------------------


def random_config_args(n, seed):
    """--phi/--init arguments of n random configurations."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n):
        theta = rng.uniform(0.0, math.pi / 2.0)
        phi1, phi2 = rng.uniform(-3.0, 3.0, 2)
        init = f"{math.cos(theta)!r},{float(phi1)!r},{math.sin(theta)!r},{float(phi2)!r}"
        configs.append(["--phi", repr(float(rng.uniform(0.01, 0.99))), "--init", init])
    return configs


@pytest.mark.parametrize("config", random_config_args(4, seed=2024))
def test_output_matches_frozen_reference(config, frozen, capsys):
    commands = (
        ["simulate", "--steps", "200"],
        ["converge", "--steps", "400"],
        ["density", "--bins", "2001"],
        ["density", "--bins", "2001", "--format", "json"],
        ["verify"],
    )
    for command in commands:
        argv = command + config
        got = run_cli(argv, capsys)
        want = run_cli(argv, capsys, main=frozen.cli.main)
        assert want[0] == 0, argv
        assert got == want, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--steps", "20", "--bins", "2"],  # every bin meets the atom window: no rows
        ["converge", "--steps", "20", "--bins", "2", "--format", "json"],
        ["density", "--bins", "2"],
        ["simulate", "--steps", "200", "--phi", "0.3", "--init", "0.6,0.1,0.8,-0.4", "--format", "json"],
        ["converge", "--steps", "400", "--phi", "0.3", "--init", "0.6,0.1,0.8,-0.4", "--format", "json"],
    ],
)
def test_table_edge_cases_match_frozen_reference(argv, frozen, capsys):
    got = run_cli(argv, capsys)
    want = run_cli(argv, capsys, main=frozen.cli.main)
    assert want[0] == 0
    assert got == want


# walk-derived columns of each table: simulate's t * P, converge's bin masses
WALK_COLUMNS = {
    "simulate": ("scaled_prob",),
    "converge": ("empirical_mass", "abs_dev", "empirical_density", "total_abs_deviation"),
}


def assert_walk_table_close(command, got, want, t):
    """CSV output of two walk kernels: every byte equal but the walk-derived numbers.

    Those may differ by at most 1e-12 in probability: t * P in ``simulate``,
    one bin's mass (times 1/width for densities) in ``converge``.
    """
    got_meta, got_header, got_rows = csv_body(got)
    want_meta, want_header, want_rows = csv_body(want)
    assert got_header == want_header and len(got_rows) == len(want_rows)
    assert got_meta.keys() == want_meta.keys()
    columns = got_header.split(",")
    if command == "simulate":
        scale = {"scaled_prob": t}
    else:
        width = float(got_rows[0][1]) - float(got_rows[0][0])
        scale = {"empirical_mass": 1.0, "abs_dev": 1.0, "empirical_density": 1.0 / width}
    scale["total_abs_deviation"] = 1.0
    for key, value in got_meta.items():
        if key in WALK_COLUMNS[command]:
            assert abs(float(value) - float(want_meta[key])) <= 1e-12, key
        elif key == "checksum":
            assert value == checksum_of(got_rows)
        else:
            assert value == want_meta[key], key
    for got_row, want_row in zip(got_rows, want_rows):
        for name, g, w in zip(columns, got_row, want_row):
            if name in WALK_COLUMNS[command]:
                assert abs(float(g) - float(w)) <= 1e-12 * scale[name], name
            else:
                assert g == w, name


@pytest.mark.parametrize("config", random_config_args(4, seed=3000))
def test_long_walk_output_matches_frozen_reference(config, frozen, capsys):
    # walks past 512 steps defer normalization, and walks past t = 2044 drop
    # the underflowed front of the light cone; of the printed numbers only
    # the walk-derived ones may change, by at most 1e-12 in probability
    # (measured: 1.6e-13 at t = 3000)
    for command in ("simulate", "converge"):
        argv = [command, "--steps", "3000"] + config
        got = run_cli(argv, capsys)
        want = run_cli(argv, capsys, main=frozen.cli.main)
        assert want[0] == 0 and got[0] == 0, argv
        assert_walk_table_close(command, got[1], want[1], 3000)
        assert got[2] == want[2], argv  # converge's summary rounds to 6 digits
