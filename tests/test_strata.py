import pytest

from charvar.epoly import EPolynomial, ExactDivisionError, Q, exact_divide
from charvar.strata import (CASE_IDS, block_identities, building_blocks,
                            derive_case, stated_results, stated_zbar_totals)

q = Q


def test_building_block_lookups():
    b = building_blocks()
    assert b["Xbar2"] == q ** 3 - 2 * q ** 2 - 3 * q
    assert b["W0"] == EPolynomial.constant(1)
    assert b["Xbar3"] == q ** 3 + 3 * q ** 2
    assert b["Xbar4/Z2"] == q ** 4 - 2 * q ** 3 - 3 * q ** 2 + 3 * q + 1
    assert b["W4"] == b["SL2"] - b["W0"] - b["W1"] - b["W2"] - b["W3"] == \
        q ** 3 - 2 * q ** 2 - q


def test_building_blocks_are_one_read_only_mapping():
    b = building_blocks()
    assert b is building_blocks()
    assert list(b)[:2] == ["SL2", "PGL2"] and list(b)[-2:] == ["U", "C*"]
    with pytest.raises(TypeError):
        b["X0"] = EPolynomial()


def test_building_block_identities_hold():
    assert all(block_identities(building_blocks()).values())


def test_block_identities_catch_a_mistranscribed_block():
    broken = dict(building_blocks(), X2=building_blocks()["X2"] + 1)
    checks = block_identities(broken)
    assert not checks["X2 = W2 * Xbar2"]
    assert not checks["X0+X1+X2+X3+X4 = SL2^2"]
    assert checks["X3 = W3 * Xbar3"]


def test_case_zbar_totals_match_stated():
    stated = stated_zbar_totals()
    for case in CASE_IDS:
        assert derive_case(case).zbar == stated[case], case


def test_case_moduli_match_stated():
    stated = stated_results()
    for case in CASE_IDS:
        assert derive_case(case).e_moduli == stated[case], case


def test_theorem_polynomials():
    assert derive_case("J+J+").e_moduli == q ** 4 + q ** 3 - q + 7
    assert derive_case("J+J-").e_moduli == q ** 4 - 3 * q ** 2 - 6 * q
    assert derive_case("J+xi").e_moduli == \
        q ** 4 + q ** 3 + 2 * q ** 2 + q + 1
    assert derive_case("xixi-generic").e_moduli == \
        q ** 4 + 2 * q ** 3 + 6 * q ** 2 + 2 * q + 1
    assert derive_case("xixi-equal").e_moduli == \
        q ** 4 + q ** 3 + 8 * q ** 2 + q + 1


def test_generic_and_special_totals_agree_via_different_strata():
    gen = derive_case("xixi-generic")
    spe = derive_case("xixi-special")
    assert gen.zbar == spe.zbar
    assert len(gen.strata) == 5 and len(spe.strata) == 4
    assert [s for s, _ in gen.strata] != [s for s, _ in spe.strata]


def test_jpjp_reducible_bookkeeping():
    res = derive_case("J+J+")
    assert res.reducible_locus == 4 * q ** 2
    assert res.zbar_star == q ** 5 + q ** 4 - q ** 2 + 3 * q
    assert building_blocks()["W2"] * res.zbar_star == \
        q**7 + q**6 - q**5 - 2*q**4 + 3*q**3 + q**2 - 3*q
    assert res.quotient_correction == EPolynomial.constant(4)
    assert res.quotient_divisor == building_blocks()["U"]


def test_equal_case_reducible_bookkeeping():
    res = derive_case("xixi-equal")
    assert res.reducible_locus == (q - 1) ** 2 * (2 * q ** 2 - 1)
    assert res.zbar_star == q ** 5 + 6 * q ** 3 - 4 * q ** 2 - 3 * q
    assert res.quotient_correction == (q - 1) ** 2
    assert res.quotient_divisor == building_blocks()["C*"]


def test_non_reducible_cases():
    for case in ("J+J-", "J+xi", "xixi-generic", "xixi-special"):
        res = derive_case(case)
        assert res.reducible_locus is None
        assert res.zbar_star == res.zbar
        assert res.quotient_correction.is_zero()


def test_stratum_contributions_are_named_and_sum():
    for case in CASE_IDS:
        res = derive_case(case)
        total = EPolynomial()
        for name, contrib in res.strata:
            assert isinstance(name, str) and name
            total = total + contrib
        assert total == res.zbar


def test_specific_stratum_values():
    gen = derive_case("xixi-generic")
    strata = dict(gen.strata)
    assert strata["F1 = (2q-1) * Xbar4lam"] == \
        2 * q ** 4 + 5 * q ** 3 - 9 * q ** 2 + q + 1
    assert strata["F5 = (q-1) * (Xbar4/Z2 - 2 Xbar4lam)"] == \
        q ** 5 - 5 * q ** 4 - 5 * q ** 3 + 18 * q ** 2 - 6 * q - 3
    spe = derive_case("xixi-special")
    assert dict(spe.strata)["F2 = 2(q-1) * Xbar3 + X1"] == \
        2 * q ** 4 + 5 * q ** 3 - 6 * q ** 2 - q
    eq = derive_case("xixi-equal")
    assert dict(eq.strata)["F2 = 2(q-1) * Xbar2 + X0"] == \
        3 * q ** 4 - 2 * q ** 3 - 3 * q ** 2 + 2 * q


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        derive_case("J+J+J+")


def test_division_failure_aborts_with_remainder():
    with pytest.raises(ExactDivisionError) as err:
        exact_divide(q ** 2 - 1, q - 2)
    assert err.value.remainder.evaluate(0) == 3
