"""End-to-end tests of the command line interface."""

import hashlib
import json
import math
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from wojcikwalk import cli, limit, quadrature, walk


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


def test_simulate_csv_needs_no_integral(capsys):
    # at phi = 1e-6 the continuous integral does not converge to --tol 1e-8;
    # the CSV table prints neither C nor the integral, so it needs neither
    code, out, err = run_cli(["simulate", "--phi", "1e-6", "--steps", "100"], capsys)
    assert (code, err) == (0, "")
    meta, header, rows = csv_body(out)
    assert meta == {} and header == "x_over_t,scaled_prob,density" and len(rows) == 101
    table = np.array(rows, dtype=float)
    coeffs = limit.weight_coefficients(walk.WalkParams(1e-6, 1.0, 0.0))
    assert np.array_equal(table[:, 2], limit.ac_density(table[:, 0], coeffs))
    # JSON metadata carries the integral, so that run still fails on it
    code, out, err = run_cli(["simulate", "--phi", "1e-6", "--steps", "100", "--format", "json"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: no convergence to tol=1e-08"), err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["--phi", "5e-10"],  # hadamard_10's phase
        ["--phi", "0.2500000005"],  # quarterphase_10's phase
        ["--phi", "0.5", "--init", "0.7071067811865476,1.5707963272948966,0.7071067811865476,0"],  # halfphase_sym
        ["--phi", "0.25", "--init", "1,0,5e-10,0"],  # quarterphase_10's moduli
    ],
)
def test_verify_skips_fixture_check_next_to_a_reference_case(argv, capsys):
    # 5e-10 off a reference case, w is off its closed form by far more than
    # 1e-12 (w moves by up to about 7 per unit of phi): no case may match
    code, out, _ = run_cli(["verify", *argv, "--steps", "4"], capsys)
    lines = out.splitlines()
    assert code == 0, out
    assert lines[0].startswith("SKIPPED fixture_reduction: ")
    assert lines[-1] == "OK"


def test_verify_json_records_share_one_shape(capsys, monkeypatch):
    # skipped, passed and failed checks: one record shape, and the metadata
    # counts what the records say
    monkeypatch.setattr(cli.spectral, "weight_from_residues", lambda x, params: 0.123)
    code, out, _ = run_cli(["verify", "--phi", "0.37", "--steps", "4", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert [list(row) for row in payload["rows"]] == [["name", "status", "detail"]] * 4
    statuses = {row["name"]: row["status"] for row in payload["rows"]}
    assert statuses == {
        "fixture_reduction": "skipped",
        "mass_decomposition": "pass",
        "spectral_oracle": "fail",
        "path_sum": "pass",
    }
    assert payload["metadata"] == {"passed": False, "checks": 4, "failed": 1}


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(cli.spectral, "weight_from_residues", lambda x, params: 0.123)
        code, out, _ = run_cli(["verify", "--phi", "0.5", "--steps", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("FAIL") and "spectral_oracle" in line for line in lines)
    assert lines[-1] == "1 CHECK(S) FAILED"
    # a wrong integral on halfphase_10 (atom 0.8, integral 0.2) still adds
    # up to 1 with its atom 1 - 0.3, but misses both reference masses
    wrong = quadrature.QuadratureResult(value=0.3, est_error=0.0, evaluations=1)
    monkeypatch.setattr(cli, "integrate_ac", lambda f, tol: wrong)
    code, out, _ = run_cli(["verify", "--phi", "0.5", "--steps", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        f"FAIL    mass_decomposition: atom {1.0 - 0.3!r} != reference 0.8; "
        "integral 0.3 != reference 0.2"
    ]
    assert lines[-1] == "1 CHECK(S) FAILED"
    # an integral above 1 breaks the sum and the raw atom too; the atom is
    # clamped to 0 with a warning
    wrong = quadrature.QuadratureResult(value=1.5, est_error=0.0, evaluations=1)
    with pytest.warns(RuntimeWarning, match=r"outside \[0, 1\]"):
        code, out, _ = run_cli(["verify", "--phi", "0.5", "--steps", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL    mass_decomposition: C + integral = 1.5; raw atom -0.5 outside [0, 1]; "
        "atom 0.0 != reference 0.8; integral 1.5 != reference 0.2"
    ]
    assert lines[-1] == "1 CHECK(S) FAILED"


def test_degenerate_denominator_exits_two(capsys, monkeypatch):
    def degenerate(params):
        raise limit.DegenerateDenominatorError(0.25, params.phi)

    monkeypatch.setattr(limit, "weight_coefficients", degenerate)
    code, out, err = run_cli(["density"], capsys)
    assert code == 2
    assert out == ""
    # 0.5 is the default phase
    assert err == "error: weight denominator vanished at x=0.25 (defect phase 0.5)\n"


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


def test_converge_reports_the_first_bin_that_fails(capsys, monkeypatch):
    # square-root kinks in two kept bins need more than 600 evaluations to
    # meet the bins' tol of 1e-9; the full integral at tol 1e-2 still converges
    monkeypatch.setattr(quadrature, "_BUDGET", 600)
    smooth = limit.ac_density
    kinks = (-0.4001, 0.3001)

    def kinked(x, coeffs):
        return smooth(x, coeffs) + sum(1e-2 * np.sqrt(np.abs(x - k)) for k in kinks)

    monkeypatch.setattr(cli.limit, "ac_density", kinked)
    code, out, err = run_cli(["converge", "--steps", "20", "--bins", "71", "--tol", "1e-2"], capsys)
    coeffs = limit.weight_coefficients(walk.WalkParams(0.5, 1.0, 0.0))
    edges = np.linspace(-quadrature.SUPPORT_RADIUS, quadrature.SUPPORT_RADIUS, 72)
    messages = []
    for k in kinks:  # each kinked bin on its own, as integrate_ac reports it
        i = int(np.searchsorted(edges, k)) - 1
        with pytest.raises(quadrature.QuadratureConvergenceError) as excinfo:
            quadrature.integrate_ac(lambda x: kinked(x, coeffs), 1e-9, lo=float(edges[i]), hi=float(edges[i + 1]))
        messages.append(str(excinfo.value))
    assert messages[0] != messages[1]
    assert (code, out, err) == (1, "", f"error: {messages[0]}\n")


def test_converge_density_calls_do_not_grow_with_bins(capsys, monkeypatch):
    # every kept bin is refined in one batch: one density call per level
    # while the level's nodes fit in one chunk, whatever the bin count
    smooth = limit.ac_density
    calls = []

    def counted(x, coeffs):
        calls.append(np.size(x))
        return smooth(x, coeffs)

    monkeypatch.setattr(cli.limit, "ac_density", counted)
    counts = []
    for bins in (200, 2000):
        calls.clear()
        assert run_cli(["converge", "--steps", "20", "--bins", str(bins)], capsys)[0] == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8, counts


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


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_long_walks_state_their_cost_before_walking(command, capsys, monkeypatch):
    # past 10^5 steps one stderr line names t and the (t + 1)(t + 2)/2 bound
    # before the walk starts; a stand-in walk keeps the test from running it
    err_before_walk = []

    def stand_in(params, steps):
        err_before_walk.append(capsys.readouterr().err)
        amps = np.zeros((2, steps + 1), dtype=np.complex128)
        amps[:, 0] = [0.6, 0.8j]  # site -t
        return walk.AmplitudeField(amps)

    monkeypatch.setattr(cli.walk, "evolve", stand_in)
    run_cli([command, "--steps", str(10**5), "--bins", "20"], capsys)
    t = 10**5 + 1
    argv = [command, "--steps", str(t), "--bins", "20"]
    announced = run_cli(argv, capsys)
    assert err_before_walk == [
        "",
        f"{command}: --steps {t} runs a walk of up to (t + 1)(t + 2)/2 = {(t + 1) * (t + 2) // 2} column-steps\n",
    ]
    # the line is the only difference: stdout, the exit code and the rest of
    # stderr are those of a run that does not announce its cost
    monkeypatch.setattr(cli, "_LONG_WALK", t)
    assert run_cli(argv, capsys) == announced
    assert err_before_walk[2] == ""


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


def test_one_parser_keeps_each_subcommand_default():
    # main parses every call with one parser; values given in one call must
    # not become a later call's defaults
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    for argv in (["simulate", "--steps", "3", "--bins", "5"], ["density", "--bins", "7"], ["converge", "--steps", "9"]):
        parser.parse_args(argv)
    defaults = {"simulate": (100, 40), "density": (0, 200), "verify": (8, 40), "converge": (10000, 71)}
    for command, steps_bins in defaults.items():
        args = parser.parse_args([command])
        assert (args.steps, args.bins) == steps_bins, command


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


def test_json_table_rows_are_the_indented_dump(capsys):
    # table rows are dumped without indent and re-indented; the bytes must
    # stay those of json.dumps(payload, indent=2)
    parser = cli._build_parser()
    config = cli._build_config(parser.parse_args(["density", "--format", "json"]), parser)
    tables = [
        np.array([[math.nan, math.inf, -math.inf, -0.0], [0.1, 5e-324, 1e300, -2.0]]),
        np.array([[1.5], [-0.0], [math.nan]]),  # one column
        np.array([[-math.inf]]),
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        # three blocks of rows, the specials on both sides of each block boundary
        np.resize([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, -2.0], (2 * cli._BLOCK_ROWS + 1, 3)),
    ]
    for table in tables:
        metadata = {"checksum": "0" * 64, "rows": len(table), "C": math.nan}
        cli._emit_json(config, metadata, table)
        want = {"config": config.echo(), "metadata": metadata, "rows": table.tolist()}
        assert_same_body(capsys.readouterr().out, json.dumps(want, indent=2) + "\n")
    for argv in (
        ["converge", "--steps", "20", "--bins", "2", "--format", "json"],  # zero rows
        ["density", "--bins", "5", "--phi", "0.37", "--format", "json"],
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_json_table_memory_is_bounded():
    # the rows are dumped a block at a time, not held as lists and text
    # whole: a 55 MB peak, against 200 MB when the whole table was held
    # (x86-64, Python 3.11, numpy 2.4).  On Linux a child's ru_maxrss also
    # counts the RSS of the process that spawned it, so a small Python
    # process starts the run and reports, not pytest itself.
    spawn = (
        "import os, subprocess, sys; proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
        "_, status, usage = os.wait4(proc.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
    )
    argv = [sys.executable, "-m", "wojcikwalk", "density", "--bins", "200000", "--format", "json"]
    report = subprocess.run([sys.executable, "-c", spawn, *argv], capture_output=True, text=True, check=True)
    code, peak_kb = map(int, report.stdout.split())
    assert code == 0
    assert peak_kb / 1024 <= 90.0, peak_kb


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--bins", str(cli._BLOCK_ROWS + 1)],  # one row past the first block
        ["density", "--bins", str(3 * cli._BLOCK_ROWS + 7), "--phi", "0.37", "--init", "0.6,0,0.8,1"],
        ["converge", "--steps", "20", "--bins", "2"],  # no kept bin: the header only
    ],
)
def test_streamed_output_matches_frozen_reference(argv, frozen, capsys, tmp_path):
    want = run_cli(argv, capsys, main=frozen.cli.main)
    assert want[0] == 0
    assert run_cli(argv, capsys) == want
    target = tmp_path / "out.csv"
    assert run_cli(argv + ["--out", str(target)], capsys) == (0, "", want[2])
    assert target.read_bytes() == want[1].encode("ascii")


def test_simulate_percent_path_matches_frozen_formatting(frozen, capsys, monkeypatch, tmp_path):
    # past 512 steps the walk's last bits may differ from the frozen copy's
    # (see test_long_walk_output_matches_frozen_reference), so the frozen
    # emitter formats this walk's own table; its zeros, values below 1e-6
    # and subnormals mix both formatter paths
    tables = []
    emit_table = cli._emit_table

    def recording(config, header, table, *args, **kwargs):
        tables.append((header, table))
        emit_table(config, header, table, *args, **kwargs)

    monkeypatch.setattr(cli, "_emit_table", recording)
    argv = ["simulate", "--steps", "2000"]
    code, out, _ = run_cli(argv, capsys)
    (header, table), = tables
    magnitudes = np.abs(table)
    assert np.any(magnitudes == 0) and np.any((magnitudes > 0) & (magnitudes < 1e-6))
    frozen.cli._emit_csv(SimpleNamespace(output_path=None), header, table.tolist())
    assert code == 0 and out == capsys.readouterr().out
    target = tmp_path / "out.csv"
    assert run_cli(argv + ["--out", str(target)], capsys) == (0, "", "")
    assert target.read_bytes() == out.encode("ascii")


# ---------------------------------------------------------------------------
# the exact "%.17g" table formatter
# ---------------------------------------------------------------------------


def percent_body(table):
    """The formatter's reference: one CPython ``%`` over every value."""
    rows, cols = table.shape
    return "\n".join([",".join(["%.17g"] * cols)] * rows) % tuple(table.ravel().tolist())


def assert_same_body(got, want):
    """``got == want`` for two table bodies, reported by their first differing line.

    A failing ``==`` on the two strings, up to ~10^5 characters, would make
    pytest diff them whole, which takes seconds to minutes per case.
    """
    got_lines, want_lines = got.split("\n"), want.split("\n")
    counts = f"{len(got_lines)} lines, want {len(want_lines)}"
    for number, (got_line, want_line) in enumerate(zip(got_lines, want_lines)):
        if got_line != want_line:
            pytest.fail(f"line {number}: {got_line!r}, want {want_line!r}; {counts}", pytrace=False)
    if len(got_lines) != len(want_lines):
        pytest.fail(counts, pytrace=False)


def formatter_inputs(family):
    rng = np.random.default_rng(1729)
    if family == "bit_patterns":  # every class of double, specials forced in
        bits = rng.integers(0, 2**64, 3000, dtype=np.uint64)
        bits[:1000] &= ~np.uint64(0x7FF << 52)  # zeros and subnormals
        bits[1000:1100] |= np.uint64(0x7FF << 52)  # nans of either sign
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308]
        specials += [2.2250738585072014e-308, 1.7976931348623157e308]
        return np.concatenate((specials, bits.view(np.float64)))
    if family == "log_uniform":  # both signs, every fast-path exponent and a decade each side
        return 10.0 ** rng.uniform(-7.0, 17.0, 6000) * rng.choice([-1.0, 1.0], 6000)
    if family == "powers_of_ten":  # the estimated exponent may be off by one here
        values = []
        for k in range(-8, 19):
            x = float(f"1e{k}")
            values += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
        return np.array(values + [-v for v in values])
    if family == "ties":  # exactly half-way between two 17-digit decimals: half-even
        j = np.arange(0, 2**16, 13)
        return np.concatenate((1.0 + (2 * j + 1) * 2.0**-17, -1.0 - (2 * j + 1) * 2.0**-17))
    if family == "near_ties":  # 18 digits ending in 5, and one ulp each side, at every s = 16 - E
        values = []
        for s in range(23):
            for digits in rng.integers(10**16, 10**17, 40).tolist():
                x = float(f"{digits}5e{-s - 1}")
                values += [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]
        return np.array(values + [-v for v in values])
    if family == "mantissa_ends":  # m = 2^52 and 2^53 - 1 times every 2^q in decades -6 … 16
        q = np.arange(-73, 4)
        values = np.concatenate((np.ldexp(2.0**52, q), np.ldexp(2.0**53 - 1.0, q)))
        values = values[(values >= 1e-6) & (values < 1e17)]
        assert set(np.floor(np.log10(values)).astype(int).tolist()) == set(range(-6, 17))
        return np.concatenate((values, -values))
    raise ValueError(family)


@pytest.mark.parametrize(
    "family", ["bit_patterns", "log_uniform", "powers_of_ten", "ties", "near_ties", "mantissa_ends"]
)
@pytest.mark.parametrize("cols", [1, 3, 8])
def test_formatter_matches_percent(family, cols):
    values = formatter_inputs(family)
    table = values[: len(values) // cols * cols].reshape(-1, cols)
    assert_same_body(b"".join(cli._body_blocks(table)).decode("ascii"), percent_body(table))


@pytest.mark.parametrize("rows", [0, 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
def test_formatter_block_boundaries(rows):
    rng = np.random.default_rng(rows)
    table = 10.0 ** rng.uniform(-8.0, 18.0, (rows, 4)) * rng.choice([-1.0, 0.0, 1.0], (rows, 4))
    blocks = list(cli._body_blocks(table))
    assert len(blocks) == -(-rows // cli._BLOCK_ROWS)
    assert_same_body(b"".join(blocks).decode("ascii"), percent_body(table))


def test_percent_formats_few_values_of_a_density_table(capsys, monkeypatch):
    # same bytes either way: this pins how much of a real table the exact
    # route covers, so that a slip to CPython's % shows here
    tables = []
    monkeypatch.setattr(cli, "_emit_table", lambda config, header, table, *args: tables.append(table))
    assert run_cli(["density", "--bins", "100000", "--phi", "0.37", "--init", "0.6,0,0.8,1"], capsys)[0] == 0
    (table,) = tables
    assert np.count_nonzero(~cli._decimal(table.ravel())[2]) <= table.size // 1000


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
