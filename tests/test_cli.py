import json

import pytest

from arithlink import arithmetic
from arithlink import unitriangular as ut
from arithlink.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# symbol


def test_symbol_legendre(capsys):
    code, out, _ = run(capsys, "symbol", "legendre", "5", "41")
    assert code == 0
    assert out.strip() == "legendre(5, 41) = +1"


def test_symbol_mu(capsys):
    code, out, _ = run(capsys, "symbol", "mu", "3", "7")
    assert code == 0
    assert out.strip() == "mu(3, 7) = 1"


def test_symbol_redei_golden(capsys):
    code, out, _ = run(capsys, "symbol", "redei", "5", "41", "61")
    assert code == 0
    assert out.splitlines()[0] == "redei[5, 41, 61] = -1"
    assert any(line.startswith("conic_x") for line in out.splitlines())


def test_symbol_json_agrees_with_human(capsys):
    _, human, _ = run(capsys, "symbol", "redei", "5", "41", "61")
    code, raw, _ = run(capsys, "--json", "symbol", "redei", "5", "41", "61")
    assert code == 0
    payload = json.loads(raw)
    assert payload["value"] == -1
    assert payload["mod2"] == 1
    assert "= -1" in human


def test_symbol_wrong_arity(capsys):
    code, _, err = run(capsys, "symbol", "legendre", "5")
    assert code == 2
    assert "takes 2" in err


def test_symbol_bad_prime(capsys):
    code, _, err = run(capsys, "symbol", "mu", "4", "7")
    assert code == 2 and "prime" in err


# ---------------------------------------------------------------------------
# solve


GOOD = """params n=2 q=2
slot 1 tau=t1 sigma=s1
slot 2 tau=t2 sigma=s2
sigma s1 = [t1,t2]
sigma s2 = [t2,t1]
rel linktype tau'=t1 alpha=1 tau=t1 sigma=s1
rel linktype tau'=t2 alpha=1 tau=t2 sigma=s2
"""

OBSTRUCTED = """params n=2 q=2
slot 1 tau=t1 sigma=s1
slot 2 tau=t2
sigma s1 = t2
rel linktype tau'=t1 alpha=0 tau=t1 sigma=s1
"""


def test_solve_success(tmp_path, capsys):
    path = tmp_path / "good.pres"
    path.write_text(GOOD)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out.splitlines()[0] == "ok: globalization into U_2 over Z/2"
    assert "sigma s1: filtration depth" in out


def test_solve_obstruction_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text(OBSTRUCTED)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 1
    assert out.splitlines()[0] == "obstruction"


def test_solve_obstruction_json(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text(OBSTRUCTED)
    code, raw, _ = run(capsys, "--json", "solve", str(path))
    assert code == 1
    payload = json.loads(raw)
    assert payload["status"] == "obstruction"
    assert payload["failures"][0]["depth"] == 2


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.pres")
    assert code == 2 and "error" in err


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.pres"
    path.write_text("params n=1 q=2\nwat\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "line 2" in err


def test_solve_consistency_error_exit_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "good.pres"
    path.write_text(GOOD)
    monkeypatch.setattr(ut, "generates", lambda gens, n, ring: False)
    code, out, err = run(capsys, "solve", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "failed to generate" in err


def test_symbol_search_bound_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(arithmetic, "iter_conic_solutions",
                        lambda p1, p2: iter(()))
    code, out, err = run(capsys, "symbol", "redei", "5", "41", "61")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "no conic solution" in err


# ---------------------------------------------------------------------------
# magnus


def test_magnus_commutator(capsys):
    code, out, _ = run(capsys, "magnus", "[t1,t2]", "--idx", "1,2")
    assert code == 0
    assert out.splitlines()[0] == "Magnus matrix in U_2 over Z/2:"
    assert out.splitlines()[-1] == "eps = 1"


def test_magnus_json(capsys):
    code, raw, _ = run(capsys, "--json", "magnus", "[t1,t2]", "--idx", "1,2",
                       "--q", "4")
    assert code == 0
    payload = json.loads(raw)
    assert payload["eps"] == 1
    assert [2, 3, 0] not in payload["matrix"]["entries"]  # zero entries omitted


def test_magnus_bad_word(capsys):
    code, _, err = run(capsys, "magnus", "[t1", "--idx", "1,2")
    assert code == 2 and "parse error" in err


def test_magnus_bad_index(capsys):
    code, _, _ = run(capsys, "magnus", "t1", "--idx", "1,,2")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_reciprocity(capsys):
    code, out, _ = run(capsys, "verify", "reciprocity", "--max", "60")
    assert code == 0
    assert "[pass]" in out


def test_verify_fiber_json(capsys):
    code, raw, _ = run(capsys, "--json", "verify", "fiber", "--n", "2", "--q", "2")
    assert code == 0
    payload = json.loads(raw)
    assert payload["failures"] == 0 and payload["status"] == "ok"


@pytest.mark.parametrize("suite", ["pairing", "magnus"])
def test_verify_sampled_suites(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--n", "2", "--q", "2",
                       "--samples", "25")
    assert code == 0
    assert "0 failures" in out


# ---------------------------------------------------------------------------
# determinism


def test_output_is_deterministic(capsys):
    a = run(capsys, "--json", "symbol", "redei", "5", "41", "61")
    b = run(capsys, "--json", "symbol", "redei", "5", "41", "61")
    assert a == b
    c = run(capsys, "magnus", "[[t1,t2],t3]", "--idx", "1,2,3")
    d = run(capsys, "magnus", "[[t1,t2],t3]", "--idx", "1,2,3")
    assert c == d
