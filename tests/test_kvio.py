"""Chain tables: one format for every RecChain, written by
`kvio.chain_to_table` and read back by `kvio.table_from_text`."""

import pytest
from mpmath import mp, mpf

from birthcut.kvio import chain_to_table, table_from_text
from birthcut.modelchain import A_constant, ln_A_k
from conftest import model_chain, oracle_chain, quartic


@pytest.mark.parametrize("kind", ["oracle", "model"])
def test_chain_table_round_trip(kind):
    if kind == "oracle":
        ch, lnA = oracle_chain("0.62", 20, nodes=1024), None
    else:
        ch, lnA = model_chain(1, 55), mp.log(A_constant(quartic("1.0")))
    fields, rows = table_from_text(chain_to_table(ch, lnA))
    assert len(rows) == ch.n_max + 1
    with mp.workprec(ch.prec):
        for n, row in enumerate(rows):
            want = [n, ch.log_h[n], ch.gamma[n] if n else 0, ch.beta[n],
                    ch.ln_zeta[n]]
            if lnA is not None:
                want.append(ln_A_k(ch, lnA, n))
            assert [mp.nstr(v, 30) for v in row] == \
                [mp.nstr(mpf(v), 30) for v in want], n
        for key in ("Tc", "x_min", "x_max", "resid"):
            assert mp.nstr(mpf(fields[key]), 30) == mp.nstr(getattr(
                ch.weight if key == "Tc" else ch, key), 30), key
    assert (int(fields["N"]), int(fields["n_max"]), int(fields["bits"]),
            int(fields["nodes"])) == (ch.weight.N, ch.n_max, ch.prec, len(ch.grid))
    assert fields["converged"] == {None: "none", True: "yes"}[ch.converged]


def test_table_reader_names_the_bad_line():
    with pytest.raises(ValueError, match="line 1"):
        table_from_text("# n ln_h gamma beta\n0 0.1 0.0 0.0\n")
    with pytest.raises(ValueError, match="line 3"):
        table_from_text("# N=4\n\n4 0.1\n")
    with pytest.raises(ValueError, match="line 2"):
        table_from_text("# N=4\n4.5 0.1 1.0\n")
    fields, rows = table_from_text("# N=4\n# n ln_h gamma\n4 0.1 1.5\n")
    assert fields == {"N": "4"} and rows == [[4, mpf("0.1"), mpf("1.5")]]
