"""Root system and Weyl group combinatorics against frozen exact values."""

import random
from fractions import Fraction
from itertools import product

import pytest

from chamberwalk.coxeter import (
    RootSystem,
    ThicknessVector,
    WeylGroup,
    chi,
    n_lambda,
    poincare_sum,
    root_system,
    uniform_thickness,
)

TYPES = ["A1", "A2", "B2", "C2", "G2"]

# |W|, |Phi+|, l(w0) per type
GROUP_SHAPE = {
    "A1": (2, 1, 1),
    "A2": (6, 3, 3),
    "B2": (8, 4, 4),
    "C2": (8, 4, 4),
    "G2": (12, 6, 6),
}

# exponents m_i, so that W(t) = prod (1 + t + ... + t^{m_i}) for uniform q
EXPONENTS = {"A1": (1,), "A2": (1, 2), "B2": (1, 3), "C2": (1, 3), "G2": (1, 5)}


def class_respecting_thickness(rs, a, b):
    """A valid thickness vector giving short-root nodes a and long-root nodes b."""
    norms = [rs.inner(al, al) for al in rs.simple_roots]
    short = min(norms)
    qs = [b if rs.inner(rs.highest_root, rs.highest_root) != short else a]
    for nm in norms:
        qs.append(a if nm == short else b)
    return ThicknessVector(tuple(qs))


@pytest.mark.parametrize("name", TYPES)
def test_group_enumeration_shape(name):
    rs = root_system(name)
    W = WeylGroup(rs)
    order, n_pos, l_w0 = GROUP_SHAPE[name]
    assert len(W.elements) == order
    assert len(rs.positive_roots) == n_pos
    assert W.w0.length == l_w0
    assert sorted(w.length for w in W.elements)[:2] == [0, 1]


def test_a2_length_multiset():
    W = WeylGroup(root_system("A2"))
    assert sorted(w.length for w in W.elements) == [0, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("name", TYPES)
def test_words_are_reduced_and_consistent(name):
    rs = root_system(name)
    W = WeylGroup(rs)
    for w in W.elements:
        assert len(w.word) == w.length
        assert W.from_word(w.word) == w


def _inversions(rs, w):
    """The positive roots that w sends to negative ones, counted."""
    return sum(all(x <= 0 for x in w.apply_root(alpha)) for alpha in rs.positive_roots)


@pytest.mark.parametrize("name", TYPES)
def test_length_is_the_inversion_count_and_the_word_ends_in_the_least_descent(name):
    W = WeylGroup(root_system(name))
    rs = W.root_system
    for w in W.elements:
        assert w.length == _inversions(rs, w)
        # reduced: as long as the inversion count, and a word for w
        assert len(w.word) == w.length and W.from_word(w.word) == w
        descents = [i for i in range(1, rs.rank + 1)
                    if _inversions(rs, W.mult(w, W.generator(i))) < w.length]
        assert list(w.word[-1:]) == descents[:1]


@pytest.mark.parametrize("name", TYPES)
def test_elements_permute_roots_and_preserve_gram(name):
    rs = root_system(name)
    W = WeylGroup(rs)
    all_roots = set(rs.positive_roots) | {
        tuple(-x for x in a) for a in rs.positive_roots
    }
    for w in W.elements:
        image = {w.apply_root(a) for a in all_roots}
        assert image == all_roots
    rng = random.Random(11)
    for _ in range(20):
        w = rng.choice(W.elements)
        a = rng.choice(rs.positive_roots)
        b = rng.choice(rs.positive_roots)
        assert rs.inner(w.apply_root(a), w.apply_root(b)) == rs.inner(a, b)


@pytest.mark.parametrize("name", TYPES)
def test_group_laws(name):
    W = WeylGroup(root_system(name))
    rng = random.Random(5)
    for _ in range(30):
        a = rng.choice(W.elements)
        b = rng.choice(W.elements)
        assert W.mult(W.mult(a, b), W.from_word(reversed(b.word))) == a
        assert W.mult(W.from_word(reversed(a.word)), a) == W.identity
    # pairing invariance between coweight and root actions
    rs = W.root_system
    for _ in range(30):
        w = rng.choice(W.elements)
        cw = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
        al = rng.choice(rs.positive_roots)
        assert RootSystem.pairing(w.apply_coweight(cw), w.apply_root(al)) == (
            RootSystem.pairing(cw, al)
        )


def _mat_product(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


@pytest.mark.parametrize("name", TYPES)
def test_cayley_table_and_word_memo_equal_matrix_products(name):
    W = WeylGroup(root_system(name))
    for a in W.elements:
        for b in W.elements:
            assert W.mult(a, b).root_mat == _mat_product(a.root_mat, b.root_mat)
    rng = random.Random(13)
    for _ in range(40):
        word = tuple(rng.randrange(1, W.root_system.rank + 1)
                     for _ in range(rng.randrange(7)))
        mat = W.identity.root_mat
        for i in word:
            mat = _mat_product(mat, W.generator(i).root_mat)
        assert W.from_word(word).root_mat == mat
        assert W.from_word(list(word)) is W.from_word(word)


def test_mult_refuses_an_element_of_another_group():
    a2 = WeylGroup(root_system("A2"))
    g2 = WeylGroup(root_system("G2"))
    # an equal element of a second A2 group is the same element
    assert a2.mult(WeylGroup(root_system("A2")).w0, a2.w0) == a2.identity
    with pytest.raises(KeyError):
        a2.mult(g2.w0, a2.identity)


@pytest.mark.parametrize("name", TYPES)
def test_stored_root_norms_equal_the_gram_sums(name):
    rs = root_system(name)
    assert rs.simple_norms == tuple(rs.inner(a, a) for a in rs.simple_roots)
    assert rs.root_norms == {a: rs.inner(a, a) for a in rs.positive_roots}
    tv = class_respecting_thickness(rs, 2, 3)
    for a in rs.positive_roots:
        neg = [-x for x in a]   # not stored: q_alpha sums its norm
        assert tv.q_alpha(rs, neg) == tv.q_alpha(rs, a)


def test_parabolic_and_longest():
    W = WeylGroup(root_system("A2"))
    assert len(W.parabolic([])) == 1
    assert len(W.parabolic([1])) == 2
    assert len(W.parabolic([1, 2])) == 6
    assert W.longest_element([1]).word == (1,)
    assert W.longest_element() == W.w0
    assert W.longest_element([1, 2]).length == 3


def test_q_w_well_defined_on_two_reduced_words():
    # B2 admits distinct node parameters, so the check is not vacuous.
    rs = root_system("B2")
    tv = class_respecting_thickness(rs, 2, 3)
    tv.validate(rs)
    # both reduced words of the longest element of B2
    assert tv.q_w((1, 2, 1, 2)) == tv.q_w((2, 1, 2, 1))
    W = WeylGroup(rs)
    # every element: recompute q_w from an alternative word found by search
    for w in W.elements:
        alt = [
            word
            for word in _all_reduced_words(W, w)
        ]
        vals = {tv.q_w(word) for word in alt}
        assert vals == {tv.q_w(w.word)}


def _all_reduced_words(W, w):
    if w.length == 0:
        return [()]
    out = []
    for i in range(1, W.root_system.rank + 1):
        col = tuple(w.root_mat[r][i - 1] for r in range(W.root_system.rank))
        if all(x <= 0 for x in col):
            shorter = W.mult(w, W.generator(i))
            out.extend(word + (i,) for word in _all_reduced_words(W, shorter))
    return out


@pytest.mark.parametrize("name", TYPES)
def test_poincare_product_formula(name):
    rs = root_system(name)
    W = WeylGroup(rs)
    for q in (2, 3, 5):
        tv = uniform_thickness(rs, q)
        t = Fraction(1, q)
        expected = Fraction(1)
        for m in EXPONENTS[name]:
            expected *= sum(t**k for k in range(m + 1))
        assert poincare_sum(tv, W.elements) == expected


def test_poincare_frozen_values():
    rs = root_system("A2")
    W = WeylGroup(rs)
    tv = uniform_thickness(rs, 2)
    assert poincare_sum(tv, W.elements) == Fraction(21, 8)
    assert poincare_sum(tv, W.parabolic([1])) == Fraction(3, 2)


def test_chi_values_and_multiplicativity():
    rs = root_system("A2")
    tv = uniform_thickness(rs, 2)
    assert chi(rs, tv, (1, 0)) == 4
    assert chi(rs, tv, (1, 1)) == 16
    assert chi(rs, tv, (-1, 0)) == Fraction(1, 4)
    rng = random.Random(3)
    for _ in range(25):
        lam = tuple(rng.randrange(-3, 4) for _ in range(2))
        mu = tuple(rng.randrange(-3, 4) for _ in range(2))
        s = tuple(a + b for a, b in zip(lam, mu))
        assert chi(rs, tv, s) == chi(rs, tv, lam) * chi(rs, tv, mu)


def test_n_lambda_frozen_a2():
    W = WeylGroup(root_system("A2"))
    expected = {
        2: {(0, 0): 1, (1, 0): 7, (0, 1): 7, (1, 1): 42, (2, 0): 28,
            (2, 1): 168, (2, 2): 672},
        3: {(0, 0): 1, (1, 0): 13, (0, 1): 13, (1, 1): 156, (2, 0): 117,
            (2, 1): 1404, (2, 2): 12636},
    }
    for q, table in expected.items():
        tv = uniform_thickness(W.root_system, q)
        for lam, val in table.items():
            assert n_lambda(W, tv, lam) == val


def test_n_lambda_tree_closed_form():
    W = WeylGroup(root_system("A1"))
    for q in (2, 3, 5):
        tv = uniform_thickness(W.root_system, q)
        assert n_lambda(W, tv, (0,)) == 1
        for k in range(1, 9):
            assert n_lambda(W, tv, (k,)) == (q + 1) * q ** (k - 1)


@pytest.mark.parametrize("name", TYPES)
def test_n_lambda_integral_positive_sweep(name):
    rs = root_system(name)
    W = WeylGroup(rs)
    for a, b in ((2, 2), (3, 3), (2, 3)):
        tv = class_respecting_thickness(rs, a, b)
        tv.validate(rs)
        for cw in _dominant_box(rs.rank, 3):
            val = n_lambda(W, tv, cw)   # raises unless a positive integer
            assert val >= 1
            iota = tuple(-c for c in W.w0.apply_coweight(cw))
            assert n_lambda(W, tv, iota) == val


def _dominant_box(rank, box):
    if rank == 1:
        return [(k,) for k in range(box + 1)]
    return [(a, b) for a in range(box + 1) for b in range(box + 1)]


def test_n_lambda_rejects_non_dominant():
    W = WeylGroup(root_system("A2"))
    tv = uniform_thickness(W.root_system, 2)
    with pytest.raises(ValueError):
        n_lambda(W, tv, (-1, 0))


def test_orbit_stabilizer_sizes():
    rs = root_system("A2")
    W = WeylGroup(rs)
    for lam in [(0, 0), (1, 0), (0, 2), (1, 1), (2, 3)]:
        orb = {w.apply_coweight(lam) for w in W.elements}
        stab = W.stabilizer(lam)
        assert len(orb) * len(stab) == len(W.elements)
        assert [v for v in orb if rs.is_dominant(v)] == [lam]


def test_types_are_weyl_invariant():
    rs = root_system("A2")
    W = WeylGroup(rs)
    rng = random.Random(13)
    for _ in range(30):
        cw = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        w = rng.choice(W.elements)
        # w(lambda) - lambda lies in the coroot lattice
        diff = tuple(a - b for a, b in zip(w.apply_coweight(cw), cw))
        assert rs.in_coroot_lattice(diff)
    # against the coroot lattice enumerated as z A, z in a box wide enough
    # to reach every coweight of [-3, 3]^rank
    for name in TYPES:
        r = root_system(name)
        spanned = {tuple(sum(z[i] * r.cartan[i][j] for i in range(r.rank))
                         for j in range(r.rank))
                   for z in product(range(-20, 21), repeat=r.rank)}
        for cw in product(range(-3, 4), repeat=r.rank):
            assert r.in_coroot_lattice(cw) == (cw in spanned), (name, cw)


def test_thickness_validation():
    rs = root_system("A2")
    with pytest.raises(ValueError):
        ThicknessVector((2, 2, 3)).validate(rs)   # nodes 1,2 conjugate in A2
    with pytest.raises(ValueError):
        ThicknessVector((3, 2, 2)).validate(rs)   # affine node conjugate too
    with pytest.raises(ValueError):
        ThicknessVector((2, 2)).validate(rs)      # wrong length
    with pytest.raises(ValueError):
        ThicknessVector((2, 0, 2))
    uniform_thickness(rs, 2).validate(rs)
    rsb = root_system("B2")
    class_respecting_thickness(rsb, 2, 3).validate(rsb)
    with pytest.raises(ValueError):
        # affine node must match the long class for B2
        ThicknessVector((2, 3, 2)).validate(rsb)
