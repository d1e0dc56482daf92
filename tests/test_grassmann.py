import numpy as np
import pytest

from ffo.grassmann import (ONE, ZERO, ZETA, ZETA_STAR, ZETA_STAR_ZETA,
                           GrassmannElement, apply_fermion_op, berezin_integrate,
                           coherent_ket, completeness_check, g_mul, graded_apply,
                           outer_integral)

# -- independent brute-force reducer (the oracle for the product table) --------
# monomials as generator words: "" = 1, "z" = zeta, "s" = zeta*, "sz" = zeta*zeta

_BASIS = ["", "z", "s", "sz"]


def _reduce_word(word):
    """Canonical-order reduction with anticommutation sign bookkeeping."""
    letters = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == letters[i + 1]:
                return None, 0  # nilpotent
            if letters[i] > letters[i + 1]:  # enforce 's' before 'z'
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                sign = -sign
                changed = True
    return "".join(letters), sign


def brute_force_mul(x, y):
    out = np.zeros(4, dtype=complex)
    for i, wi in enumerate(_BASIS):
        for j, wj in enumerate(_BASIS):
            c = x.c[i] * y.c[j]
            if c == 0:
                continue
            word, sign = _reduce_word(wi + wj)
            if sign == 0:
                continue
            out[_BASIS.index(word)] += sign * c
    return GrassmannElement(out)


def test_product_table_matches_brute_force():
    # all 16 basis pairs in one broadcast product, each against the reducer
    basis = GrassmannElement(np.eye(4))
    table = g_mul(basis[:, None], basis[None, :])
    for i in range(4):
        for j in range(4):
            want = brute_force_mul(basis[i], basis[j])
            assert np.allclose(table.c[i, j], want.c), (i, j, table.c[i, j], want.c)


def test_stacked_product_is_each_product_bit_for_bit():
    rng = np.random.default_rng(2)
    r = rng.normal(size=(2, 2, 6, 4))
    x, y = (GrassmannElement(r[i, 0] + 1j * r[i, 1]) for i in range(2))
    for commuting in (False, True):
        stacked = g_mul(x, y, commuting=commuting)
        assert stacked.c.shape == (6, 4)
        for k in range(6):
            assert np.array_equal(stacked.c[k], g_mul(x[k], y[k], commuting=commuting).c)
        # a single element broadcasts against the stack
        assert np.array_equal(g_mul(ZETA, y, commuting=commuting).c[3],
                              g_mul(ZETA, y[3], commuting=commuting).c)


def test_generator_relations():
    assert g_mul(ZETA, ZETA).max_abs() == 0.0
    assert g_mul(ZETA_STAR, ZETA_STAR).max_abs() == 0.0
    # zeta . zeta* = -zeta*zeta
    assert np.allclose(g_mul(ZETA, ZETA_STAR).c, -ZETA_STAR_ZETA.c)
    assert np.allclose(g_mul(ZETA_STAR, ZETA).c, ZETA_STAR_ZETA.c)


def test_expand_one_plus_zeta_times_one_plus_zeta_star():
    got = (ONE + ZETA) * (ONE + ZETA_STAR)
    assert np.allclose(got.c, [1, 1, 1, -1])


def test_odd_elements_are_nilpotent():
    # 50 odd elements a zeta + b zeta* in one stack
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 50)) + 1j * rng.normal(size=(2, 50))
    x = GrassmannElement(a[:, None] * ZETA.c + b[:, None] * ZETA_STAR.c)
    assert g_mul(x, x).max_abs() < 1e-14


def test_associativity_random_triples():
    r = np.random.default_rng(11).normal(size=(100, 3, 2, 4))
    x, y, z = (GrassmannElement(r[:, i, 0] + 1j * r[:, i, 1]) for i in range(3))
    assert ((x * y) * z - x * (y * z)).max_abs() < 1e-13


def test_berezin_rules():
    assert berezin_integrate(g_mul(ZETA, ZETA_STAR)) == 1.0
    assert berezin_integrate(ONE) == 0.0
    assert berezin_integrate(ZETA) == 0.0
    assert berezin_integrate(ZETA_STAR) == 0.0
    assert berezin_integrate(GrassmannElement([3, 0, 0, 2])) == -2.0
    # one value per element of a stack
    stack = GrassmannElement([[3, 0, 0, 2], [0, 1, 1, -1j]])
    assert np.array_equal(berezin_integrate(stack), [-2.0, 1j])


def test_berezin_linearity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        x, y = (GrassmannElement(rng.normal(size=4) + 1j * rng.normal(size=4))
                for _ in range(2))
        lhs = berezin_integrate(a * x + b * y)
        rhs = a * berezin_integrate(x) + b * berezin_integrate(y)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_coherent_ket_components():
    # row n is the |n> coefficient
    ket = coherent_ket(1.0)
    assert ket.c.shape == (2, 4)
    assert np.allclose(ket.c, [[1, 0, 0, -0.5], [0, -1, 0, 0]])
    vac = coherent_ket(0.0)
    assert np.allclose(vac[0].c, ONE.c)
    assert vac[1].max_abs() == 0.0


def test_coherent_ket_is_b_eigenstate():
    for scale in (1.0, 0.3 - 0.8j):
        ket = coherent_ket(scale)
        lhs = apply_fermion_op("b", ket)
        rhs = (scale * ZETA) * ket
        assert (lhs - rhs).max_abs() < 1e-15


def test_graded_action_examples():
    # b on (a0=1, a1=-zeta) must give (a0=+zeta, a1=0): the operator moves
    # past the odd coefficient with a sign flip
    ket = GrassmannElement([ONE.c, -ZETA.c])
    out = apply_fermion_op("b", ket)
    assert np.allclose(out[0].c, ZETA.c)
    assert out[1].max_abs() == 0.0

    vac = GrassmannElement([ONE.c, ZERO.c])
    assert apply_fermion_op("b", vac).max_abs() == 0.0
    raised = apply_fermion_op("b_dag", vac)
    assert np.allclose(raised[1].c, ONE.c) and raised[0].max_abs() == 0.0
    # b' twice annihilates
    assert apply_fermion_op("b_dag", raised).max_abs() == 0.0


def test_anticommutator_action_is_identity():
    # ten random kets as one (10, 2, 4) stack
    r = np.random.default_rng(5).normal(size=(10, 2, 2, 4))
    ket = GrassmannElement(r[:, 0] + 1j * r[:, 1])
    bk = apply_fermion_op("b_dag", apply_fermion_op("b", ket))
    kb = apply_fermion_op("b", apply_fermion_op("b_dag", ket))
    assert np.allclose((bk + kb).c, ket.c)
    twice = apply_fermion_op("b", apply_fermion_op("b", ket))
    assert twice.max_abs() == 0.0


def test_graded_apply_on_a_stack_is_each_apply_bit_for_bit():
    rng = np.random.default_rng(8)
    r = rng.normal(size=(2, 5, 2, 4))
    kets = GrassmannElement(r[0] + 1j * r[1])
    mats = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    out = graded_apply(mats, kets)
    for k in range(5):
        assert np.array_equal(out.c[k], graded_apply(mats[k], kets[k]).c)


def test_completeness():
    assert completeness_check() <= 1e-14
    mat = outer_integral(coherent_ket(1.0))
    assert np.allclose(mat, np.eye(2))
    # a stack of kets integrates ket by ket; |s zeta> integrates to |s|^2 times 1
    scales = (1.0, 0.5j, 2.0)
    stacked = outer_integral(GrassmannElement([coherent_ket(s).c for s in scales]))
    for k, s in enumerate(scales):
        assert np.array_equal(stacked[k], outer_integral(coherent_ket(s)))
        assert np.allclose(stacked[k], abs(s) ** 2 * np.eye(2))


def test_completeness_detects_flipped_grading():
    assert completeness_check(commuting=True) >= 1.0


def test_unknown_operator_rejected():
    with pytest.raises(ValueError):
        apply_fermion_op("c", coherent_ket(0.0))


def test_graded_apply_needs_2x2():
    with pytest.raises(ValueError):
        graded_apply(np.eye(3), coherent_ket(1.0))
    # a ket axis of length 3
    with pytest.raises(ValueError):
        graded_apply(np.eye(2), GrassmannElement(np.zeros((3, 4))))


def test_element_needs_four_coefficients():
    with pytest.raises(ValueError):
        GrassmannElement(np.zeros((4, 3)))
