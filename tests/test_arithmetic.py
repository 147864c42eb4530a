import pytest
from sympy import nextprime

from arithlink import arithmetic
from arithlink.arithmetic import (ConicSolution, SymbolResult,
                                  class_number_gate, format_symbol_result,
                                  iter_conic_solutions, jacobi, legendre,
                                  legendre_euler, linking_invariant_n1,
                                  linking_invariant_n2, mu_linking_number,
                                  ordering_extends_to_quadratic,
                                  ramifies_in_quadratic, redei_solve_conic,
                                  redei_symbol, single_globalization_exists)
from arithlink.errors import ConsistencyError, InputError, SearchBoundError


# ---------------------------------------------------------------------------
# Legendre symbols


def test_legendre_examples():
    assert legendre(5, 41) == 1
    assert legendre(41, 5) == 1
    assert legendre(5, 61) == 1
    assert legendre(41, 61) == 1
    assert legendre(2, 3) == -1
    assert legendre(3, 3) == 0


def test_legendre_matches_euler_oracle():
    p = 3
    while p < 200:
        for a in range(p):
            assert legendre(a, p) == legendre_euler(a, p)
        p = nextprime(p)


def test_legendre_negative_argument():
    # (-1/p) = +1 iff p = 1 mod 4
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1


def test_legendre_rejects_bad_modulus():
    for p in (2, 9, 15, 1, -7):
        with pytest.raises(InputError):
            legendre(3, p)


def test_jacobi_composite_modulus():
    assert jacobi(2, 15) == jacobi(2, 3) * jacobi(2, 5)
    with pytest.raises(InputError):
        jacobi(2, 10)


# ---------------------------------------------------------------------------
# linking numbers, depth 1


def test_mu_examples():
    assert mu_linking_number(5, 41) == 0
    assert mu_linking_number(3, 7) == 1
    assert mu_linking_number(7, 3) == 0


def test_mu_rejects_bad_input():
    with pytest.raises(InputError):
        mu_linking_number(5, 5)
    with pytest.raises(InputError):
        mu_linking_number(4, 7)


def test_n1_invariant_examples():
    assert linking_invariant_n1(5, 61) == 0
    assert linking_invariant_n1(13, 7) == 1


def test_n1_invariant_requires_1_mod_4():
    with pytest.raises(InputError):
        linking_invariant_n1(7, 3)


def test_n1_matches_mu():
    for p1 in (5, 13, 17, 29):
        for pj in (3, 7, 11, 19, 23, 31):
            assert linking_invariant_n1(p1, pj) == mu_linking_number(p1, pj)


# ---------------------------------------------------------------------------
# quadratic field predicates


def test_ramification_examples():
    assert ramifies_in_quadratic(5, 5)
    assert ramifies_in_quadratic(2, 3)
    assert not ramifies_in_quadratic(3, 5)
    assert not ramifies_in_quadratic(2, 5)
    assert ramifies_in_quadratic(2, -1)


def test_ramification_rejects_non_squarefree():
    with pytest.raises(InputError):
        ramifies_in_quadratic(3, 12)
    with pytest.raises(InputError):
        ramifies_in_quadratic(3, 1)


def test_ordering_extension():
    assert ordering_extends_to_quadratic(5)
    assert not ordering_extends_to_quadratic(-1)
    assert not ordering_extends_to_quadratic(-7)


def test_single_globalization():
    assert single_globalization_exists(5)
    assert single_globalization_exists(13)
    assert not single_globalization_exists(3)
    assert not single_globalization_exists(7)


def test_class_number_gate():
    assert class_number_gate() is True


# ---------------------------------------------------------------------------
# the conic


def test_conic_solution_golden():
    sol = redei_solve_conic(5, 41)
    assert (sol.x ** 2, sol.y % 2, sol.z % 2) == \
        (5 * sol.y ** 2 + 41 * sol.z ** 2, 0, 1)
    assert (abs(sol.x), sol.y, sol.z) == (11, 4, 1)
    assert (sol.x + sol.y) % 4 == 1


def test_conic_solution_validation():
    ConicSolution(5, 41, -11, 4, 1)
    with pytest.raises(InputError):
        ConicSolution(5, 41, 11, 4, 1)  # wrong sign: x + y = 15 mod 4 != 1
    with pytest.raises(InputError):
        ConicSolution(5, 41, -11, 4, 2)  # not a solution
    with pytest.raises(InputError):
        ConicSolution(5, 41, -22, 8, 2)  # imprimitive


def test_conic_other_pairs():
    for p1, p2 in ((13, 17), (5, 61), (41, 61)):
        sol = redei_solve_conic(p1, p2)
        assert sol.x ** 2 == p1 * sol.y ** 2 + p2 * sol.z ** 2


def test_conic_enumeration_is_deterministic():
    a = [s for _, s in zip(range(3), iter_conic_solutions(5, 41))]
    b = [s for _, s in zip(range(3), iter_conic_solutions(5, 41))]
    assert a == b
    assert len({(s.x, s.y, s.z) for s in a}) == 3


def test_conic_rejects_incompatible_pair():
    with pytest.raises(InputError):
        redei_solve_conic(5, 13)  # (5/13) = -1
    with pytest.raises(InputError):
        redei_solve_conic(3, 7)  # not 1 mod 4


# ---------------------------------------------------------------------------
# the Redei symbol


def test_redei_golden_triple():
    result = redei_symbol(5, 41, 61)
    assert result.value == -1
    assert result.witness("legendre_p1_p3") == 1
    assert result.witness("conic_z") % 61 != 0


def test_redei_positive_triple():
    # independent check via minimal-polynomial factorization
    result = redei_symbol(5, 41, 59)
    assert result.value == 1
    assert result.value == _splitting_oracle(5, 41, 59)


def _splitting_oracle(p1, p2, p3):
    """+1 iff X^4 - 2xX^2 + p2 z^2 splits into linear factors mod p3.

    That quartic is the minimal polynomial of sqrt(x + y sqrt(p1)) over Q,
    since alpha * alpha-bar = p2 z^2; complete splitting mod p3 is exactly
    the symbol being +1.
    """
    sol = next(s for s in iter_conic_solutions(p1, p2) if s.z % p3 != 0)
    roots = [t for t in range(p3)
             if (t ** 4 - 2 * sol.x * t ** 2 + p2 * sol.z ** 2) % p3 == 0]
    return 1 if len(roots) == 4 else -1


@pytest.mark.parametrize("p3", [31, 61, 131])
def test_redei_matches_splitting_oracle(p3):
    assert redei_symbol(5, 41, p3).value == _splitting_oracle(5, 41, p3)


def test_redei_well_defined_across_solutions():
    baseline = redei_symbol(5, 41, 61).value
    count = 0
    for sol in iter_conic_solutions(5, 41):
        if sol.z % 61 == 0:
            continue
        assert redei_symbol(5, 41, 61, solution=sol).value == baseline
        count += 1
        if count == 4:
            break
    assert count == 4


def test_redei_rejects_bad_triples():
    with pytest.raises(InputError):
        redei_symbol(5, 41, 41)
    with pytest.raises(InputError):
        redei_symbol(5, 41, 7)  # (5/7) = -1
    with pytest.raises(InputError):
        redei_symbol(5, 13, 61)  # (5/13) = -1


def test_redei_rejects_solution_with_bad_z():
    sol = next(s for s in iter_conic_solutions(5, 61) if s.z % 41 == 0)
    with pytest.raises(InputError):
        redei_symbol(5, 61, 41, solution=sol)


def test_redei_raises_search_bound_when_no_solution_found(monkeypatch):
    monkeypatch.setattr(arithmetic, "iter_conic_solutions",
                        lambda p1, p2: iter(()))
    with pytest.raises(SearchBoundError):
        redei_symbol(5, 41, 61)


def test_redei_raises_search_bound_when_every_z_divisible_by_p3(monkeypatch):
    # real normalized solutions of x^2 - 5y^2 - 41z^2 = 0, both with z = 61
    bad = [ConicSolution(5, 41, -391, 8, 61), ConicSolution(5, 41, -479, 124, 61)]
    monkeypatch.setattr(arithmetic, "iter_conic_solutions",
                        lambda p1, p2: iter(bad))
    with pytest.raises(SearchBoundError):
        redei_symbol(5, 41, 61)


def test_n2_invariant_golden():
    assert linking_invariant_n2(5, 41, 61) == 1
    assert linking_invariant_n2(5, 29, 109) == 0


def test_n2_invariant_requires_pj_1_mod_4():
    with pytest.raises(InputError):
        linking_invariant_n2(5, 41, 7)


# ---------------------------------------------------------------------------
# result container


def test_symbol_result_validation():
    with pytest.raises(InputError):
        SymbolResult(0, ())
    r = SymbolResult(-1, (("b", 2), ("a", 1)))
    assert r.witnesses == (("a", 1), ("b", 2))
    assert r.witness("a") == 1


def test_format_symbol_result():
    text = format_symbol_result(SymbolResult(-1, (("conic_x", -11),)))
    assert text.splitlines()[0] == "value -1"
    assert "mod2 1" in text
    assert "conic_x -11" in text
