import pytest

from arithlink import cli, magnus, verify
from arithlink.errors import ConsistencyError
from arithlink.linking import Obstruction


def _obstructed(pres):
    return Obstruction(())


def test_pairing_raises_on_obstructed_fixture(monkeypatch):
    monkeypatch.setattr(verify, "build_globalization", _obstructed)
    with pytest.raises(ConsistencyError):
        verify.verify_pairing(n=2, q=2, samples=3)


def test_cli_maps_obstructed_fixture_to_exit_one(monkeypatch, capsys):
    monkeypatch.setattr(verify, "build_globalization", _obstructed)
    assert cli.main(["verify", "pairing", "--samples", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_magnus_suite_compares_with_series_oracle(monkeypatch):
    # Matrices along the reversed index still multiply like words and carry
    # their own corner as eps; only the series oracle can tell them apart.
    def reversed_matrix(word, index, ring):
        return magnus.magnus_matrix(word, tuple(reversed(index)), ring)

    def reversed_eps(word, index, ring):
        return reversed_matrix(word, index, ring).entry(1, len(index) + 1)

    monkeypatch.setattr(verify, "magnus_matrix", reversed_matrix)
    monkeypatch.setattr(verify, "eps", reversed_eps)
    summary = verify.verify_magnus(n=3, q=3, samples=20)
    assert summary["failures"] > 0

