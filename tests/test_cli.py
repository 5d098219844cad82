"""CLI surface: exit codes, file formats, determinism."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from birthcut import modelchain, oracle
from birthcut.cli import main
from birthcut.kvio import measure_from_kv, parse_kv, spec_to_kv
from conftest import quartic


def run(args):
    return main(args)


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
    ["--nu", "2", "--e", "2.6"]])
def test_validate_passes_at_every_precision(dps, spec_args, capsys):
    # the sign checks' floor follows the working precision: at 15 digits a
    # floor of 1e-5 of the scale failed genuine samples of 4.9e-9 .. 3.2e-6
    with mp.workdps(mp.dps):             # main sets the global precision
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
    # and --nu 0 built the nu = 1 chain
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    assert capsys.readouterr().err == "error: need N >= 3\n"


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


def test_compare_against_exported_table(tmp_path):
    from birthcut.oracle import build_rec_chain, chain_to_table
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


def test_compare_malformed_row_is_usage_error(tmp_path, capsys):
    table = tmp_path / "oracle.tsv"
    table.write_text("# N=12 Tc=0.5 n_max=15 bits=256\n# n ln_h gamma beta\n"
                     "12 0.1 1.0 0.0\n13 0.5\n")
    assert run(["compare", "--phi-e", "0.62", "--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 4" in err


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
