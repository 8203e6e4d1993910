"""Exact linear algebra over the 2-local integers.

The 2-local elimination kernel is checked against sympy's Smith normal
form, whose invariant factors must agree with its diagonal up to odd
factors; kernels and cokernels of finite groups are checked against
brute-force element enumeration, which stays independent of the matrix
route, and cokernels with free summands against sympy again.
"""

from collections import Counter
from itertools import product as iproduct
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as reference_snf

from etale_quadrics.abelian import (
    CyclicSummand,
    FinAb2Group,
    GroupHom,
    _snf_ext,
    _solve_2local,
    cokernel,
    image,
    inverse_limit,
    kernel,
)
from etale_quadrics.errors import NotStabilized


def _sy(m):
    return sympy.Matrix(m)


def _two_part(v):
    return abs(v) & -abs(v)


def reference_two_parts(m):
    """2-parts of sympy's invariant factors of m (0 for a zero factor)."""
    ref = reference_snf(_sy(m), domain=sympy.ZZ)
    return sorted(_two_part(int(ref[i, i])) for i in range(min(ref.shape)))


def check_snf(m):
    """U*m*V = D diagonal, U unimodular with inverse Uinv, det V odd, and
    the diagonal's 2-parts ascending with the zeros last; returns those
    2-parts (0 for a zero entry)."""
    U, D, V, Uinv = _snf_ext(m)
    assert _sy(U) * _sy(m) * _sy(V) == _sy(D)
    assert _sy(U) * _sy(Uinv) == sympy.eye(len(m))
    assert abs(_sy(U).det()) == 1
    assert _sy(V).det() % 2 == 1
    nr = len(D)
    nc = len(D[0]) if nr else 0
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert D[i][j] == 0
    parts = [_two_part(D[i][i]) for i in range(min(nr, nc))]
    rank = sum(1 for p in parts if p)
    assert parts[:rank] == sorted(parts[:rank]) and not any(parts[rank:])
    assert sorted(parts) == reference_two_parts(m)
    return parts


def test_snf_already_diagonal():
    assert check_snf([[2, 0], [0, 0]]) == [2, 0]


def test_snf_zero_matrix():
    assert check_snf([[0]]) == [0]


def test_snf_invariant_factors_2_and_4():
    # gcd of the entries is 2 and |det| = 8, so the factors are 2 and 4
    assert check_snf([[2, 4], [6, 8]]) == [2, 4]


def test_snf_rectangular_and_negative():
    assert check_snf([[0, 2, 0], [-2, 0, 4]]) == [2, 2]
    check_snf([[3], [5], [7]])
    check_snf([[1, 2, 3]])


@st.composite
def int_matrices(draw):
    nr = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 4))
    return [
        [draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]


@settings(max_examples=60, deadline=None)
@given(int_matrices())
def test_snf_matches_reference(m):
    check_snf(m)


def _mul(m, x):
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def test_solve_2local_allows_odd_denominators():
    assert _solve_2local([[3]], [[1]], 1, 1) == [[1]]  # 3*1 = 3*1, 3 odd
    assert _solve_2local([[2]], [[1]], 1, 1) == [None]


@settings(max_examples=60, deadline=None)
@given(int_matrices(), st.data())
def test_solve_2local_solves_the_image(m, data):
    nr, nc = len(m), len(m[0])
    xs = [data.draw(st.lists(st.integers(-5, 5), min_size=nc, max_size=nc)) for _ in range(2)]
    rhs = [_mul(m, x) for x in xs]
    for b, sol in zip(rhs, _solve_2local(m, rhs, nr, nc)):
        assert sol is not None and len(sol) == nc
        mb = _mul(m, sol)
        i = next((i for i, v in enumerate(b) if v), None)
        if i is None:
            assert not any(mb)
            continue
        unit, rem = divmod(mb[i], b[i])
        assert rem == 0 and unit % 2 == 1
        assert mb == [unit * v for v in b]


# ---------------------------------------------------------------------------
# enumeration oracle for finite groups


def elements(group: FinAb2Group):
    assert group.free_rank == 0, "enumeration needs a finite group"
    return list(iproduct(*[range(o) for o in group.orders]))


def element_order(x, orders):
    return lcm(*(o // gcd(o, v) for o, v in zip(orders, x))) if x else 1


def order_stats(vectors, orders):
    """Multiset of element orders; a complete isomorphism invariant for
    finite abelian groups."""
    return Counter(element_order(v, orders) for v in vectors)


def group_stats(group: FinAb2Group):
    return order_stats(elements(group), group.orders)


def Z(*orders, prefix="g"):
    return FinAb2Group(tuple(CyclicSummand(o, f"{prefix}{i}") for i, o in enumerate(orders)))


def hom(domain, codomain, cols):
    matrix = tuple(
        tuple(col[i] for col in cols) for i in range(codomain.ngens)
    )
    return GroupHom(domain, codomain, matrix)


def test_kernel_times_two_on_z4():
    h = hom(Z(4), Z(4), [[2]])
    K, incl = kernel(h)
    assert K.structure() == (0, (2,))
    assert incl.matrix == ((2,),)  # generated by twice the generator


def test_kernel_identity_on_z2():
    K, _ = kernel(GroupHom.identity(Z(2)))
    assert K.is_trivial


def test_kernel_reduction_z4_to_z2():
    h = hom(Z(4), Z(2), [[1]])
    K, incl = kernel(h)
    # oracle: walk all four elements
    ker_elems = [x for x in elements(h.domain) if all(v == 0 for v in h.apply(x))]
    assert order_stats(ker_elems, h.domain.orders) == group_stats(K)
    assert K.structure() == (0, (2,))
    for j in range(K.ngens):
        g = [incl.matrix[i][j] for i in range(h.domain.ngens)]
        assert all(v == 0 for v in h.apply(g))


def test_cokernel_times_two_on_free():
    free = FinAb2Group((CyclicSummand(0, "x"),))
    h = hom(free, free, [[2]])
    C, proj = cokernel(h)
    assert C.structure() == (0, (2,))
    assert C.labels == ("x",)


def test_cokernel_of_surjection_is_trivial():
    h = hom(Z(8), Z(4), [[1]])
    C, _ = cokernel(h)
    assert C.is_trivial


def test_cokernel_index_two_inclusion():
    h = hom(Z(4), Z(8), [[2]])  # embeds as the even residues
    C, proj = cokernel(h)
    img = {h.apply(x) for x in elements(h.domain)}
    cosets = {proj.apply(list(y)) for y in elements(h.codomain)}
    assert len(cosets) == len(elements(h.codomain)) // len(img) == 2
    assert C.structure() == (0, (2,))


def test_cokernel_keeps_smallest_contributing_label():
    dom = FinAb2Group((CyclicSummand(2, "a"),))
    cod = FinAb2Group((CyclicSummand(2, "x"), CyclicSummand(2, "y")))
    h = GroupHom(dom, cod, ((1,), (1,)))  # diagonal embedding
    C, proj = cokernel(h)
    assert C.structure() == (0, (2,))
    assert C.labels == ("x",)  # x and y both contribute; x sorts first
    assert proj.matrix == ((1, 1),)


def test_cokernel_odd_multiplier_is_unit():
    # 3 is invertible 2-locally, so multiplication by 6 behaves like by 2
    h = hom(Z(8), Z(8), [[6]])
    C, _ = cokernel(h)
    assert C.structure() == (0, (2,))


@st.composite
def finite_homs(draw):
    dom_orders = draw(st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3))
    cod_orders = draw(st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3))
    dom = Z(*dom_orders, prefix="a")
    cod = Z(*cod_orders, prefix="b")
    cols = []
    for o in dom_orders:
        col = []
        for oc in cod_orders:
            step = max(oc // gcd(o, oc), 1)
            col.append(step * draw(st.integers(0, max(oc // step - 1, 0))))
        cols.append(col)
    return hom(dom, cod, cols)


@settings(max_examples=60, deadline=None)
@given(finite_homs())
def test_first_isomorphism_bookkeeping(h):
    K, incl = kernel(h)
    S, s_incl = image(h)
    C, proj = cokernel(h)
    dom_size = prod(h.domain.orders)
    ker_size = prod(K.torsion_orders) if K.torsion_orders else 1
    img_size = prod(S.torsion_orders) if S.torsion_orders else 1
    cok_size = prod(C.torsion_orders) if C.torsion_orders else 1
    cod_size = prod(h.codomain.orders)
    assert dom_size == ker_size * img_size
    assert cod_size == img_size * cok_size
    # oracle: enumerate
    ker_elems = [x for x in elements(h.domain) if all(v == 0 for v in h.apply(x))]
    assert order_stats(ker_elems, h.domain.orders) == group_stats(K)
    img_elems = {h.apply(x) for x in elements(h.domain)}
    assert order_stats(img_elems, h.codomain.orders) == group_stats(S)
    # the defining compositions vanish
    for j in range(K.ngens):
        g = [incl.matrix[i][j] for i in range(h.domain.ngens)]
        assert all(v == 0 for v in h.apply(g))
    for x in elements(h.domain):
        assert all(v == 0 for v in proj.apply(list(h.apply(x))))


@st.composite
def homs_with_free_summands(draw):
    """Homs whose domain and codomain both have a free summand."""
    orders = st.sampled_from([0, 2, 4, 8])
    dom_orders = [0] + draw(st.lists(orders, max_size=2))
    cod_orders = [0] + draw(st.lists(orders, max_size=2))
    dom = Z(*dom_orders, prefix="a")
    cod = Z(*cod_orders, prefix="b")
    cols = []
    for o in dom_orders:
        col = []
        for oc in cod_orders:
            if o == 0:
                col.append(draw(st.integers(-4, 4)))
            elif oc == 0:
                col.append(0)  # torsion maps to zero in a free summand
            else:
                step = max(oc // gcd(o, oc), 1)
                col.append(step * draw(st.integers(0, max(oc // step - 1, 0))))
        cols.append(col)
    return hom(dom, cod, cols)


@settings(max_examples=60, deadline=None)
@given(homs_with_free_summands())
def test_free_summands_against_sympy(h):
    B = h.codomain
    torsion = [(i, o) for i, o in enumerate(B.orders) if o]
    m = [
        list(row) + [o if i == ti else 0 for ti, o in torsion]
        for i, row in enumerate(h.matrix)
    ]
    parts = reference_two_parts(m)
    rank = sum(1 for p in parts if p)
    want = (B.ngens - rank, tuple(sorted((p for p in parts if p > 1), reverse=True)))
    C, _ = cokernel(h)
    assert C.structure() == want
    K, _ = kernel(h)
    S, _ = image(h)
    assert h.domain.free_rank == K.free_rank + S.free_rank
    assert B.free_rank == S.free_rank + C.free_rank


def test_free_ranks_add_up():
    dom = FinAb2Group((CyclicSummand(0, "u"), CyclicSummand(0, "v"), CyclicSummand(4, "t")))
    cod = FinAb2Group((CyclicSummand(0, "w"), CyclicSummand(2, "s")))
    h = hom(dom, cod, [[1, 0], [1, 1], [0, 1]])
    K, _ = kernel(h)
    S, _ = image(h)
    assert dom.free_rank == K.free_rank + S.free_rank


def test_compose_reduces_modulo_orders():
    f = hom(Z(4), Z(8), [[2]])
    g = hom(Z(8), Z(2), [[1]])
    gf = g.compose(f)
    assert gf.matrix == ((0,),)
    assert gf.is_zero


def test_hom_rejects_incompatible_orders():
    with pytest.raises(ValueError):
        hom(Z(2), Z(4), [[1]])  # 2*1 != 0 in Z/4


# ---------------------------------------------------------------------------
# inverse limits


def reduction_tower(depth):
    groups = [Z(2**s, prefix="x") for s in range(1, depth + 1)]
    maps = [
        hom(groups[s + 1], groups[s], [[1]]) for s in range(depth - 1)
    ]
    return groups, maps


def test_limit_of_reductions_is_free():
    groups, maps = reduction_tower(8)
    lim = inverse_limit(groups, maps)
    assert lim.structure() == (1, ())


def test_limit_of_constant_identity_tower():
    g = Z(2)
    groups = [g] * 8
    maps = [GroupHom.identity(g)] * 7
    assert inverse_limit(groups, maps) == g


def test_limit_of_zero_maps_vanishes():
    # zero maps, and x2 on Z/8: its images into level 0 have orders
    # 8, 4, 2, 1, 1, ..., so the run of equal images starts over before
    # it settles
    for g, f in ((Z(2), GroupHom.zero(Z(2), Z(2))), (Z(8), hom(Z(8), Z(8), [[2]]))):
        assert inverse_limit([g] * 8, [f] * 7).is_trivial


def test_limit_of_constant_tower_returns_the_group():
    g = FinAb2Group((CyclicSummand(4, "t"), CyclicSummand(2, "u")))
    groups = [g] * 8
    maps = [GroupHom.identity(g)] * 7
    assert inverse_limit(groups, maps) == g


def test_limit_rejects_free_levels():
    g = FinAb2Group((CyclicSummand(0, "f"), CyclicSummand(2, "u")))
    groups = [g] * 8
    maps = [GroupHom.identity(g)] * 7
    with pytest.raises(ValueError, match="finite"):
        inverse_limit(groups, maps)


def test_limit_of_mixed_tower():
    groups = [Z(2**s, 2, prefix="m") for s in range(1, 9)]
    maps = [
        hom(groups[s + 1], groups[s], [[1, 0], [0, 1]]) for s in range(7)
    ]
    assert inverse_limit(groups, maps).structure() == (1, (2,))


def test_limit_requires_depth():
    groups, maps = reduction_tower(3)
    with pytest.raises(NotStabilized):
        inverse_limit(groups, maps)


def test_limit_rejects_mismatched_maps():
    groups, maps = reduction_tower(8)
    with pytest.raises(ValueError):
        inverse_limit(groups, maps[:-1])
