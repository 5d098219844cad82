"""CLI surface: exit codes, file formats, determinism."""

import contextlib
import io
import os
import subprocess
import sys
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

import birthcut
from birthcut import cli, equilibrium, modelchain, oracle
from birthcut.cli import main
from birthcut.kvio import measure_from_kv, measure_to_kv, parse_kv, spec_to_kv
from conftest import quartic


def run(args):
    return main(args)


def test_cli_import_loads_neither_numpy_nor_scipy():
    # every CLI run pays its imports; the package's numerics are mpmath and
    # Python integers, so a fresh interpreter must not pull in numpy
    src = os.path.dirname(os.path.dirname(os.path.abspath(birthcut.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, birthcut.cli; print(sorted({m.split('.')[0] for m in "
            "sys.modules} & {'numpy', 'scipy'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path),
                         check=True).stdout
    assert out.strip() == "[]", out


def test_validate_ok(capsys):
    assert run(["validate", "--phi-e", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_failure_exit_code(tmp_path):
    spec = quartic("1.0")
    text = spec_to_kv(spec)
    # corrupt the Q block: shift the root beyond e so Q(e) < 0
    bad = text.replace("Q = ", "Q = -9 1 #", 1)
    bad = [l for l in bad.splitlines() if not l.startswith("Q =")]
    bad.append("Q = -%s 1" % mp.nstr(spec.e + 1, 20))
    path = tmp_path / "bad.spec"
    path.write_text("\n".join(bad) + "\n")
    assert run(["validate", "--spec", str(path)]) == 1


@pytest.mark.parametrize("dps", [15, 16, 40])
@pytest.mark.parametrize("spec_args", [
    ["--phi-e", "0.5"], ["--phi-e", "1.0"], ["--phi-e", "1.5"],
    ["--nu", "2", "--e", "2.6"], ["--nu", "4", "--e", "2.2"],
    ["--nu", "5", "--e", "2.1"], ["--nu", "4", "--e", "2.05"]])
def test_validate_passes_at_every_precision(dps, spec_args, capsys):
    # the sign checks' floor follows the working precision: at 15 digits a
    # floor of 1e-5 of the scale failed genuine samples of 4.9e-9 .. 3.2e-6.
    # At nu = 4 the samples next to e fall within that floor of zero:
    # undecidable, not FAIL. At nu = 5, e = 2.1 (15 and 16 digits) and
    # nu = 4, e = 2.05 (15 digits) the rounding of Q's coefficients leaves
    # the vanishing integral below minus 16 units of the scale; the floor
    # covers it
    assert run(["--dps", str(dps), "validate"] + spec_args) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_scan_u_and_compare_warn_outside_the_Z_regime(monkeypatch, tmp_path,
                                                        capsys):
    # one stderr line names the u values with valid_Z false; the exit code
    # and the CSV rows are those of a run inside the regime
    from birthcut import asymptotics

    def no_oracle(*args, **kwargs):
        raise ArithmeticError("oracle not needed here")

    monkeypatch.setattr(oracle, "build_rec_chain", no_oracle)
    spec = quartic("0.62")
    # u-grid 0:1.5:0.5 at N = 12 gives p = 0..3, the table's rows below
    regimes = [asymptotics.make_regime(spec, 12, p) for p in range(4)]
    bad = [rp.u for rp in regimes if not rp.valid_Z]
    assert len(bad) == 2                  # u = 0 and u = 0.998
    base = ["scan-u", "--phi-e", "0.62", "--N", "12"]
    assert run(base + ["--u-grid", "0.5:0.5:1"]) == 0
    assert capsys.readouterr().err == ""
    assert run(base + ["--u-grid", "0:1.5:0.5"]) == 0
    out, err = capsys.readouterr()
    assert out.count("ERROR") == 1 and err.count("\n") == 1
    assert err.startswith("warning: u = ")
    named = err.split("u = ")[1].split(" outside")[0]
    assert named == ", ".join("%s (N = 12)" % mp.nstr(u, 6) for u in bad)
    table = tmp_path / "oracle.tsv"
    table.write_text("# N=12 Tc=0.5 n_max=15 bits=256\n# n ln_h gamma beta\n"
                     + "".join("%d 0.1 1.0 0.0\n" % n for n in range(12, 16)))
    out_csv = tmp_path / "cmp.csv"
    assert run(["compare", "--phi-e", "0.62", "--table", str(table),
                "--out", str(out_csv)]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("warning: u = ")
    assert err.split("u = ")[1].split(" outside")[0] == named
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "N,p,u,gamma_oracle,gamma_reduced,gamma_full"
    assert [r.split(",")[1] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_missing_file_is_usage_error():
    assert run(["validate", "--spec", "/nonexistent/spec.kv"]) == 2


def test_no_spec_arguments_is_usage_error():
    assert run(["validate"]) == 2


@pytest.mark.parametrize("argv", [
    ["validate", "--phi-e", "abc"],
    ["validate", "--phi-e", "-1"],
    ["chain", "--kmax", "500"],
    ["scan-u", "--phi-e", "0.62", "--N", "2"],
    ["psi", "--phi-e", "1.05", "--u", "-1"],
    ["psi", "--phi-e", "1.05", "--u", "40"],
    ["scan-u", "--phi-e", "0.62", "--N", "3", "--u-grid=-3:-3:1"],
    ["transition", "--phi-e", "1.0", "--t-grid", "1e400:1e400:1"],
    ["transition", "--phi-e", "1.0", "--t-grid=1:1:1"],
    ["transition", "--phi-e", "1.0", "--t-grid=-1:-1:1"],
    ["equilibrium", "--phi-e", "1.0", "--t", "-1"],
    ["equilibrium", "--phi-e", "1.0", "--t", "-2", "--two-cut"],
    ["--dps", "14", "validate", "--phi-e", "1.0"],
    ["--dps", "-1", "validate", "--phi-e", "1.0"],
    ["chain", "--nu", "0"],
])
def test_out_of_domain_input_is_usage_error(argv, capsys):
    # the library's ValueError for such input ended in a traceback (exit 1);
    # t/T_c = +-1 divided by ln 1 = 0 (exit 3 with an empty message), T <= 0
    # printed a measure, --dps < 15 ran with a tolerance looser than 1e-9,
    # --nu 0 built the nu = 1 chain, u = 40 (ubar past the model chain's
    # n_max) ended in an IndexError, and an index N + p < 1 emptied the
    # k-sums (exit 3 with an empty message)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_range_error_names_the_index_and_the_limit(capsys):
    # u = 40 asks the model chain (n_max = 29) for k = 40; the message said
    # only "k out of range"
    assert run(["psi", "--phi-e", "1.05", "--u", "40"]) == 2
    err = capsys.readouterr().err
    assert "40" in err and "29" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--nu", "2", "--e", "nan"],
    ["validate", "--phi-e", "inf"],
    ["critical", "--phi-e", "1.0", "--t", "nan"],
    ["equilibrium", "--phi-e", "1.0", "--t", "inf"],
    ["equilibrium", "--phi-e", "1.0", "--t=-inf"],
    ["psi", "--phi-e", "1.0", "--u", "nan"],
    ["transition", "--phi-e", "1.0", "--t-grid", "nan:1e-3:1e-4"],
])
def test_non_finite_number_is_usage_error(argv, capsys):
    # these ended in a traceback (exit 1) or printed nan/inf with exit 0
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_scan_u_checks_every_N_before_building_the_chain(monkeypatch, capsys):
    from birthcut import modelchain

    def no_build(*args, **kwargs):
        raise AssertionError("model chain built before N was checked")

    monkeypatch.setattr(modelchain, "build_chain", no_build)
    assert run(["scan-u", "--phi-e", "0.62", "--N", "40,2"]) == 2
    assert capsys.readouterr().err == "error: --N 2: need N >= 3\n"


@pytest.mark.parametrize("cmd", ["scan-u", "psi"])
@pytest.mark.parametrize("N", ["-5", "0", "2"])
def test_N_below_3_is_usage_error_before_any_logarithm(cmd, N, capsys):
    # ln N came first: psi at N = -5 ended in a TypeError traceback (int()
    # of an mpc), scan-u at N = 0 in "cannot convert inf or nan to int"
    assert run([cmd, "--phi-e", "0.62", "--N", N]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --N %s: need N >= 3\n" % N


def _edited_spec(tmp_path, key, value, phi_e="0.62"):
    """A file of the quartic spec at phi_e with the key's value replaced."""
    lines = [("%s = %s" % (key, value(line.split("=", 1)[1].split())))
             if line.startswith(key + " =") else line
             for line in spec_to_kv(quartic(phi_e)).splitlines()]
    path = tmp_path / "edited.spec"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("nu", ["0", "-1"])
def test_spec_with_nu_below_1_is_usage_error(tmp_path, capsys, nu):
    # build_potential raised Poly([-e, 1]) to the power 2 nu - 1 < 0, whose
    # square-and-multiply loop never ended: validate hung
    path = _edited_spec(tmp_path, "nu", lambda _: nu)
    assert run(["validate", "--spec", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed spec file") and err.count("\n") == 1
    assert "nu = %s: need nu >= 1" % nu in err


@pytest.mark.parametrize("cmd", [["scan-u", "--N", "40", "--u-grid", "1:1:1"],
                                 ["psi", "--N", "40", "--with-oracle"]])
@pytest.mark.parametrize("key, value", [
    ("Tc", lambda _: "-1"),
    ("V", lambda c: " ".join(c[:-1] + ["-" + c[-1]]))])
def test_oracle_of_a_weight_that_does_not_decay_is_usage_error(
        tmp_path, capsys, cmd, key, value):
    # with T_c <= 0 or a negative leading coefficient of V the domain walk
    # never met its budget, and the command never returned. T_c <= 0 is a
    # malformed spec file; such a V is a well-formed file of an invalid
    # model, which the weight's check rejects
    path = _edited_spec(tmp_path, key, value)
    assert run(cmd + ["--spec", path]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    if key == "Tc":
        assert err.endswith("Tc = -1: need a number in (0, inf)")
        return
    assert err.startswith("error: weight exp(-(N/Tc) V)")
    assert err.endswith("need N/Tc > 0 and V of even degree with a positive "
                        "leading coefficient")


@pytest.mark.parametrize("cmd", [
    ["validate"], ["critical", "--t", "1e-3"], ["equilibrium", "--t", "1e-3"],
    ["transition"], ["psi", "--N", "40", "--u", "1"]])
@pytest.mark.parametrize("key, value", [
    ("e", "1.5"), ("phi_e", "-1"), ("Tc", "-2"), ("Tc", "0"), ("Q", ""),
    ("V", ""), ("e", "nan"), ("e_tilde", "inf")])
def test_malformed_spec_value_is_usage_error(tmp_path, capsys, cmd, key,
                                             value):
    # each ended in a traceback (e = 1.5 in critical, transition and psi;
    # phi_e = -1 and Tc = -2 in psi), the empty message "numerical
    # failure: " (Tc = 0, an empty Q), or exit 0 (e = nan)
    path = _edited_spec(tmp_path, key, lambda _: value, phi_e="1.0")
    assert run(cmd + ["--spec", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed spec file %s: %s = "
                                   % (path, key))
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("exc, code, text", [
    (ZeroDivisionError(), 3, "numerical failure: ZeroDivisionError"),
    (ValueError(), 2, "error: ValueError")])
def test_an_empty_message_names_the_exception_type(monkeypatch, capsys, exc,
                                                   code, text):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert run(["validate", "--phi-e", "1.0"]) == code
    assert capsys.readouterr().err == text + "\n"


@pytest.mark.parametrize("argv, code", [
    (["--dps", "20", "validate", "--nu", "2", "--e", "2.6"], 0),
    (["--dps", "20", "validate"], 2),
    (["--dps", "5", "validate", "--phi-e", "1"], 2),
    (["--dps", "20", "validate", "--phi-e", "x"], 2),
    (["--no-such-option"], 2)])
def test_main_leaves_the_global_precision_as_it_found_it(argv, code, capsys):
    # main set mp.dps to --dps and left it there; a run and each kind of
    # usage error now leave it as it was
    with mp.workdps(15):
        assert run(argv) == code
        assert mp.dps == 15


def test_equilibrium_solver_failure_is_numerical_failure(capsys):
    # above T_c the one-cut solve does not converge; main reports it once
    assert run(["equilibrium", "--phi-e", "1.0", "--t", "0.05"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_parser_is_built_once_per_process(monkeypatch):
    # the first call builds the parser, the second reuses it
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    for _ in range(2):
        assert run(["validate", "--phi-e", "1.0"]) == 0
    assert len(builds) == 1


def test_usage_error_between_calls_leaves_the_next_call_unchanged(capsys):
    # the failed parse sets no precision and leaves no option behind: the
    # one-cut call after it prints what the one before it printed
    argv = ["equilibrium", "--phi-e", "1.0", "--t", "-1e-4"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["--dps", "20", "equilibrium", "--phi-e", "1.0", "--t", "1e-4",
                "--two-cut", "--bogus"]) == 2
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", ["validate", "scan-u"])
def test_command_replaced_after_the_first_call_is_the_one_run(
        command, monkeypatch, capsys):
    assert run(["validate", "--phi-e", "1.0"]) == 0
    capsys.readouterr()
    name = "cmd_" + command.replace("-", "_")
    monkeypatch.setattr(cli, name,
                        lambda args: print("replaced", args.phi_e) or 0)
    assert run([command, "--phi-e", "1.0"]) == 0
    assert capsys.readouterr().out == "replaced 1.0\n"


def test_equilibrium_writes_parseable_measure(tmp_path):
    out = tmp_path / "mu.kv"
    assert run(["equilibrium", "--phi-e", "1.0", "--out", str(out)]) == 0
    mu = measure_from_kv(out.read_text())
    assert mu.s == 1
    assert abs(mu.endpoints[0] + 2) < mpf("1e-12")
    assert abs(mu.endpoints[1] - 2) < mpf("1e-12")


def test_equilibrium_two_cut(tmp_path):
    out = tmp_path / "mu2.kv"
    assert run(["equilibrium", "--phi-e", "1.0", "--t", "1e-4",
                "--two-cut", "--out", str(out)]) == 0
    mu = measure_from_kv(out.read_text())
    assert mu.s == 2
    assert mu.endpoints[1] < mu.x0 < mu.endpoints[2]   # x0 lies in the gap


@pytest.fixture
def empty_caches(monkeypatch):
    """The test runs on empty spec and measure caches, and `_clear` empties
    them again; the process's own caches come back after the test."""
    monkeypatch.setattr(cli, "_specs", OrderedDict())
    monkeypatch.setattr(cli, "_measures", OrderedDict())


def _clear():
    cli._specs.clear()
    cli._measures.clear()


TWO_CUT_ARGV = ["equilibrium", "--phi-e", "1.0", "--t", "1e-4", "--two-cut"]


def test_equilibrium_after_transition_reuses_spec_and_measure(
        empty_caches, monkeypatch, capsys):
    # transition solves the two-cut measure at t/T_c = 1e-4; equilibrium
    # --two-cut at the same t in the same process builds no spec, evaluates
    # no cut system, and prints what it prints on empty caches
    assert run(TWO_CUT_ARGV) == 0
    fresh = capsys.readouterr().out
    _clear()
    assert run(["transition", "--phi-e", "1.0", "--t-grid", "1e-4:1e-4:1"]) == 0
    capsys.readouterr()
    calls = []
    system, build = equilibrium._cut_system, cli.make_quartic_spec
    monkeypatch.setattr(equilibrium, "_cut_system",
                        lambda *a: calls.append("system") or system(*a))
    monkeypatch.setattr(cli, "make_quartic_spec",
                        lambda *a: calls.append("spec") or build(*a))
    assert run(TWO_CUT_ARGV) == 0
    assert calls == []
    assert capsys.readouterr().out == fresh


def test_each_precision_solves_a_measure_of_its_own(empty_caches, capsys):
    # a --dps 30 run after a 40-digit one at the same t solves again, and
    # prints what a --dps 30 run on empty caches prints
    assert run(["--dps", "30"] + TWO_CUT_ARGV) == 0
    fresh30 = capsys.readouterr().out
    _clear()
    assert run(TWO_CUT_ARGV) == 0
    out40 = capsys.readouterr().out
    assert run(["--dps", "30"] + TWO_CUT_ARGV) == 0
    assert capsys.readouterr().out == fresh30 != out40
    assert len(cli._measures) == 2


def test_a_long_t_grid_keeps_at_most_the_bound_of_measures(empty_caches,
                                                           capsys):
    # 40 points, 80 solves: memory stays flat on any grid
    assert run(["transition", "--phi-e", "1.0",
                "--t-grid", "1e-5:4e-4:1e-5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 80
    assert len(cli._measures) == cli.MEASURE_CACHE_SIZE
    assert len(cli._specs) == 1


def test_a_rewritten_spec_file_is_read_again(empty_caches, tmp_path, capsys):
    # a --spec FILE spec is never kept: after the file changes, the run
    # prints what a process that saw only the new file prints
    path = tmp_path / "model.spec"
    argv = ["equilibrium", "--spec", str(path), "--t", "1e-4", "--two-cut"]
    path.write_text(spec_to_kv(quartic("1.3")))
    assert run(argv) == 0
    fresh = capsys.readouterr().out
    _clear()
    path.write_text(spec_to_kv(quartic("1.0")))
    assert run(argv) == 0
    old = capsys.readouterr().out
    path.write_text(spec_to_kv(quartic("1.3")))
    assert run(argv) == 0
    assert capsys.readouterr().out == fresh != old
    assert not cli._specs


def test_negative_option_values(tmp_path):
    # argparse alone reads -1e-4 and -2:2:0.1 as unknown options (exit 2)
    out = tmp_path / "mu.kv"
    assert run(["equilibrium", "--phi-e", "1.0", "--t", "-1e-4",
                "--out", str(out)]) == 0
    mu = measure_from_kv(out.read_text())
    assert mu.s == 1 and mu.T < quartic("1.0").Tc
    out = tmp_path / "psi.csv"
    assert run(["psi", "--phi-e", "1.05", "--N", "80", "--y-grid", "-2:2:0.1",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 41
    assert abs(mpf(rows[1].split(",")[0]) + 2) < mpf("1e-30")


def test_critical_block(tmp_path):
    out = tmp_path / "crit.kv"
    assert run(["critical", "--phi-e", "1.0", "--t", "1e-4", "--out", str(out)]) == 0
    kv = parse_kv(out.read_text())
    assert mpf(kv["zeta"]) > 0
    assert mpf(kv["c"]) < mpf(kv["d"])


def test_chain_table(tmp_path):
    out = tmp_path / "chain.tsv"
    assert run(["chain", "--nu", "1", "--kmax", "12", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 12


def test_scan_u_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "scan1.csv", tmp_path / "scan2.csv"
    args = ["--bits", "256", "scan-u", "--phi-e", "0.62", "--N", "12",
            "--u-grid", "0.4:1.2:0.4"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    rows = out1.read_text().splitlines()
    assert rows[0].startswith("N,p,u,ubar,eps_u,gamma_oracle")
    assert len(rows) == 1 + 3
    assert out1.read_bytes() == out2.read_bytes()


def test_unconverged_oracle_ladder_warns_once(monkeypatch, capsys):
    # an oracle check that stays above converged_residual but below 1e-20
    # ends the ladder on its top rung: scan-u and psi --with-oracle warn once
    # per oracle chain on stderr, and print and exit as they do otherwise
    commands = (["scan-u", "--phi-e", "0.62", "--N", "8,12",
                 "--u-grid", "0.4:0.8:0.4"],
                ["psi", "--phi-e", "1.05", "--N", "8", "--u", "1.3",
                 "--with-oracle"])
    plain = []
    for argv in commands:
        assert run(argv) == 0
        plain.append(capsys.readouterr())
    resid = mp.ldexp(1, -100)
    monkeypatch.setattr(oracle, "orthogonality_residual",
                        lambda ch, pairs, grid=None: resid)
    monkeypatch.setattr(oracle, "PANEL_LADDER", (5, 10))   # a short climb
    for argv, before, chains in zip(commands, plain, (2, 1)):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out == before.out
        lines = err.splitlines()
        warned = [l for l in lines if "orthonormality residual" in l]
        assert [l for l in lines if l not in warned] \
            == before.err.splitlines()
        assert len(warned) == chains
        assert all(mp.nstr(resid, 3) in l and "%d nodes" % (
            64 * oracle.PANEL_LADDER[-1]) in l for l in warned)


def test_scan_u_reduced_forms_follow_the_full_ones_below_threshold(tmp_path):
    # at u < 0 the reduced gamma and beta read the same terms as the full
    # sums and fall to 1 and 0 with them (they grew like N^{-u/nu} before)
    out = tmp_path / "scan.csv"
    assert run(["scan-u", "--phi-e", "1.0", "--N", "40",
                "--u-grid=-2:-0.5:0.5", "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["-4", "-3", "-2", "-1"]
    for r in rows:
        g_red, g_full = mpf(r[6]), mpf(r[7])
        b_red, b_full = mpf(r[9]), mpf(r[10])
        assert abs(g_red - g_full) < mpf("0.01") * g_full, r[1]
        assert abs(b_red - b_full) < mpf("0.05") * b_full, r[1]
        assert 1 < g_red < mpf("1.011") and 0 < b_red < mpf("0.06"), r[1]


def test_transition_rows(tmp_path):
    out = tmp_path / "trans.csv"
    assert run(["transition", "--phi-e", "1.0", "--t-grid", "1e-4:1e-4:1",
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("t_over_Tc,side")
    assert any(",below," in r for r in rows)
    assert any(",above," in r for r in rows)
    below = [r for r in rows if ",below," in r][0].split(",")
    assert abs(mpf(below[2]) - mpf(below[3])) < mpf("0.1") * abs(mpf(below[3]))


def test_transition_rows_past_the_two_cut_window(capsys):
    # nu = 2, e = 2.6 leaves the two-cut window near t/T_c = 7.4e-5: the
    # ten `above` rows from 1.1e-4 on name the crossed guess in four CSV
    # fields, and the run exits 0
    assert run(["transition", "--nu", "2", "--e", "2.6",
                "--t-grid", "1e-5:1e-3:1e-4"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 22 and all(len(r) == 4 for r in rows)
    above = [r for r in rows if r[1] == "above"]
    mpf(above[0][2])                      # t/T_c = 1e-5 solves
    for r in above[1:]:
        assert r[2].startswith("ERROR two-cut guess crossed: b = "), r[0]
        assert r[2].endswith("; t may be past the two-cut window"), r[0]
        assert r[3] == ""
    assert all(mpf(r[2]) > 0 for r in rows if r[1] == "below")


def test_transition_rows_at_15_digits_match_40(capsys):
    # the cut solves stop at the working precision, so both d2F_solver rows
    # at --dps 15 are within 1e-8 relative of the 40-digit rows (a tolerance
    # of 10^(8 - dps) left them 3.4e-4 below T_c and 9.4e-6 above)
    rows = {}
    for dps in (15, 40):
        assert run(["--dps", str(dps), "transition", "--phi-e", "1.0",
                    "--t-grid", "1e-5:1e-5:1"]) == 0
        rows[dps] = [r.split(",") for r in
                     capsys.readouterr().out.splitlines()[1:]]
    assert [r[1] for r in rows[15]] == [r[1] for r in rows[40]] \
        == ["below", "above"]
    for low, ref in zip(rows[15], rows[40]):
        assert abs(mpf(low[2]) - mpf(ref[2])) <= mpf("1e-8") * abs(mpf(ref[2])), \
            low[1]


def _former_oracle_table(ch):
    """The oracle table format `compare` read before `kvio.chain_to_table`:
    header N, Tc, n_max, bits and the columns n, ln_h, gamma, beta."""
    lines = ["# N=%d Tc=%s n_max=%d bits=%d" % (
        ch.weight.N, mp.nstr(ch.weight.Tc, 30), ch.n_max, ch.prec), "# n ln_h gamma beta"]
    for n in range(ch.n_max + 1):
        lines.append("%d %s %s %s" % (
            n, mp.nstr(ch.log_h[n], 30),
            mp.nstr(ch.gamma[n] if n >= 1 else mpf(0), 30),
            mp.nstr(ch.beta[n], 30)))
    return "\n".join(lines) + "\n"


def test_compare_against_exported_table(tmp_path):
    from birthcut.kvio import chain_to_table
    from birthcut.oracle import build_rec_chain
    spec = quartic("0.62")
    ch = build_rec_chain(spec.V, 12, spec.Tc, n_max=15, bits=256, nodes=3008)
    table = tmp_path / "oracle.tsv"
    table.write_text(chain_to_table(ch))
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--phi-e", "0.62", "--table", str(table),
                "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("N,p,u,gamma_oracle")
    assert len(rows) == 1 + 4   # p = 0..3
    # the same CSV as from the former oracle table of the same chain
    table.write_text(_former_oracle_table(ch))
    former = tmp_path / "former.csv"
    assert run(["compare", "--phi-e", "0.62", "--table", str(table),
                "--out", str(former)]) == 0
    assert former.read_text() == out.read_text()


def test_compare_malformed_row_is_usage_error(tmp_path, capsys):
    table = tmp_path / "oracle.tsv"
    table.write_text("# N=12 Tc=0.5 n_max=15 bits=256\n# n ln_h gamma beta\n"
                     "12 0.1 1.0 0.0\n13 0.5\n")
    assert run(["compare", "--phi-e", "0.62", "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 4" in err
    # a table without N= in its first line
    table.write_text("# Tc=0.5 n_max=15 bits=256\n12 0.1 1.0 0.0\n")
    assert run(["compare", "--phi-e", "0.62", "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1" in err


# subcommand -> (an argv it accepts, the options a hostile value goes to)
_CLI_CASES = {
    "validate": (["--phi-e", "1.0"], ["--phi-e", "--nu", "--e", "--spec"]),
    "equilibrium": (["--phi-e", "1.0"], ["--phi-e", "--t", "--nu", "--e"]),
    "critical": (["--phi-e", "1.0"], ["--phi-e", "--t", "--nu"]),
    "chain": (["--nu", "1", "--kmax", "8"], ["--nu", "--kmax", "--phi-e"]),
    "scan-u": (["--phi-e", "0.62", "--N", "40"], ["--phi-e", "--N", "--u-grid"]),
    "psi": (["--phi-e", "1.05"], ["--phi-e", "--N", "--u", "--y-grid"]),
    "transition": (["--phi-e", "1.0", "--t-grid", "1e-4:1e-4:1"],
                   ["--phi-e", "--t-grid", "--nu", "--e"]),
    "compare": (["--phi-e", "0.62"], ["--phi-e", "--table"]),
}
_GLOBAL_OPTIONS = ["--bits", "--dps"]
_HOSTILE = ["nan", "-1", "1e400", "abc", "", "0:0:0"]


class _ChainBuilt(Exception):
    """Raised in place of a chain build: the input got past every check."""


def _no_chain(*args, **kwargs):
    raise _ChainBuilt


def _hostile_argv(cmd, opt, value):
    base, _ = _CLI_CASES[cmd]
    if opt in _GLOBAL_OPTIONS:
        return [opt, value, cmd] + base
    if opt in base:
        i = base.index(opt)
        return [cmd] + base[:i] + [opt, value] + base[i + 2:]
    return [cmd] + base + [opt, value]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_CLI_CASES)).flatmap(lambda cmd: st.tuples(
    st.just(cmd), st.sampled_from(_CLI_CASES[cmd][1] + _GLOBAL_OPTIONS),
    st.sampled_from(_HOSTILE))))
@example(("critical", "--t", "1e400"))     # was a TypeError traceback
def test_cli_exit_contract_on_hostile_values(case):
    # whatever the value, main returns an exit code in 0..3 and raises
    # nothing; no chain is built (a build ends the example as accepted input)
    argv = _hostile_argv(*case)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mpatch, mp.workdps(40), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mpatch.setattr(modelchain, "build_chain", _no_chain)
        mpatch.setattr(oracle, "build_rec_chain", _no_chain)
        try:
            code = main(argv)
        except _ChainBuilt:
            return
    assert code in (0, 1, 2, 3), (argv, code)


@pytest.mark.parametrize("extra", [[], ["--t", "1e-4", "--two-cut"]])
def test_equilibrium_header_records_newton(tmp_path, extra):
    out = tmp_path / "mu.kv"
    assert run(["equilibrium", "--phi-e", "1.0", "--out", str(out)] + extra) == 0
    head = out.read_text().splitlines()[0].split()
    assert head[:3] == ["#", "equilibrium", "measure"]
    fields = dict(tok.split("=") for tok in head[3:])
    assert set(fields) == {"newton_steps", "residual"}
    assert int(fields["newton_steps"]) >= 0
    assert 0 <= mpf(fields["residual"]) < mpf("1e-30")
    # a measure read back records no solve, and its header says none
    again = measure_to_kv(measure_from_kv(out.read_text()))
    assert again.splitlines()[0] == "# equilibrium measure"
