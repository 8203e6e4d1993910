"""Exact linear algebra over the 2-local integers.

The 2-local elimination kernel is checked against sympy's Smith normal
form, whose invariant factors must agree with its diagonal up to odd
factors; kernels and cokernels of finite groups are checked against
brute-force element enumeration, which stays independent of the matrix
route, and cokernels with free summands against sympy again.  Inverse
limits of random finite towers are checked against a reading of their
image chains that labels every image and compares structures, and the
limit is read from the last two stable images in both.
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
    WINDOW,
    CyclicSummand,
    FinAb2Group,
    GroupHom,
    _snf_ext,
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


def identity_hom(group):
    n = group.ngens
    return GroupHom(group, group, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def apply(h, x):
    """h on the coefficient vector x, reduced modulo the codomain orders."""
    sums = (sum(a * b for a, b in zip(row, x)) for row in h.matrix)
    return tuple(v % o if o else v for v, o in zip(sums, h.codomain.orders))


def test_kernel_times_two_on_z4():
    h = hom(Z(4), Z(4), [[2]])
    K = kernel(h)
    assert K.structure() == (0, (2,))


def test_kernel_identity_on_z2():
    K = kernel(identity_hom(Z(2)))
    assert K.is_trivial


def test_kernel_reduction_z4_to_z2():
    h = hom(Z(4), Z(2), [[1]])
    K = kernel(h)
    # oracle: walk all four elements
    ker_elems = [x for x in elements(h.domain) if not any(apply(h, x))]
    assert order_stats(ker_elems, h.domain.orders) == group_stats(K)
    assert K.structure() == (0, (2,))


def test_cokernel_times_two_on_free():
    free = FinAb2Group((CyclicSummand(0, "x"),))
    h = hom(free, free, [[2]])
    C = cokernel(h)
    assert C.structure() == (0, (2,))
    assert C.labels == ("x",)


def test_cokernel_of_surjection_is_trivial():
    h = hom(Z(8), Z(4), [[1]])
    assert cokernel(h).is_trivial


def test_cokernel_index_two_inclusion():
    h = hom(Z(4), Z(8), [[2]])  # embeds as the even residues
    C = cokernel(h)
    img = {apply(h, x) for x in elements(h.domain)}
    assert len(elements(h.codomain)) // len(img) == len(elements(C)) == 2
    assert C.structure() == (0, (2,))


def test_cokernel_keeps_smallest_contributing_label():
    dom = FinAb2Group((CyclicSummand(2, "a"),))
    cod = FinAb2Group((CyclicSummand(2, "x"), CyclicSummand(2, "y")))
    h = GroupHom(dom, cod, ((1,), (1,)))  # diagonal embedding
    C = cokernel(h)
    assert C.structure() == (0, (2,))
    assert C.labels == ("x",)  # x and y both contribute; x sorts first


def test_cokernel_odd_multiplier_is_unit():
    # 3 is invertible 2-locally, so multiplication by 6 behaves like by 2
    h = hom(Z(8), Z(8), [[6]])
    assert cokernel(h).structure() == (0, (2,))


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
    K, S, C = kernel(h), image(h), cokernel(h)
    dom_size = prod(h.domain.orders)
    ker_size = prod(K.torsion_orders) if K.torsion_orders else 1
    img_size = prod(S.torsion_orders) if S.torsion_orders else 1
    cok_size = prod(C.torsion_orders) if C.torsion_orders else 1
    cod_size = prod(h.codomain.orders)
    assert dom_size == ker_size * img_size
    assert cod_size == img_size * cok_size
    # oracle: enumerate
    ker_elems = [x for x in elements(h.domain) if not any(apply(h, x))]
    assert order_stats(ker_elems, h.domain.orders) == group_stats(K)
    img_elems = {apply(h, x) for x in elements(h.domain)}
    assert order_stats(img_elems, h.codomain.orders) == group_stats(S)


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
    K, S, C = kernel(h), image(h), cokernel(h)
    assert C.structure() == want
    assert h.domain.free_rank == K.free_rank + S.free_rank
    assert B.free_rank == S.free_rank + C.free_rank


def test_free_ranks_add_up():
    dom = FinAb2Group((CyclicSummand(0, "u"), CyclicSummand(0, "v"), CyclicSummand(4, "t")))
    cod = FinAb2Group((CyclicSummand(0, "w"), CyclicSummand(2, "s")))
    h = hom(dom, cod, [[1, 0], [1, 1], [0, 1]])
    assert dom.free_rank == kernel(h).free_rank + image(h).free_rank


@settings(max_examples=60, deadline=None)
@given(st.one_of(finite_homs(), homs_with_free_summands()))
def test_labels_name_generators(h):
    """Kernel and image summands are labeled by domain generators, cokernel
    summands by codomain generators; a label taken k > 1 times reads
    label, label~2, ..., label~k."""
    for group, source in ((kernel(h), h.domain), (image(h), h.domain), (cokernel(h), h.codomain)):
        taken = Counter(label.split("~")[0] for label in group.labels)
        assert set(taken) <= set(source.labels)
        assert set(group.labels) == {
            label if i == 1 else f"{label}~{i}" for label, k in taken.items() for i in range(1, k + 1)
        }


@pytest.mark.parametrize(
    "codomain",
    (
        Z(),
        Z(2, 4),
        FinAb2Group((CyclicSummand(0, "f"),)),
        FinAb2Group((CyclicSummand(0, "f"), CyclicSummand(4, "t"))),
    ),
    ids=("empty", "torsion", "free", "mixed"),
)
def test_empty_domain(codomain):
    """With nothing to map, the kernel and the image are trivial and the
    cokernel is the codomain, labels included."""
    h = GroupHom(Z(), codomain, tuple(() for _ in range(codomain.ngens)))
    assert kernel(h).is_trivial
    assert image(h).is_trivial
    assert set(cokernel(h).summands) == set(codomain.summands)


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
    maps = [identity_hom(g)] * 7
    assert inverse_limit(groups, maps) == g


def test_limit_of_zero_maps_vanishes():
    # zero maps, and x2 on Z/8: its images into level 0 have orders
    # 8, 4, 2, 1, 1, ..., so the run of equal images starts over before
    # it settles
    for g, f in ((Z(2), hom(Z(2), Z(2), [[0]])), (Z(8), hom(Z(8), Z(8), [[2]]))):
        assert inverse_limit([g] * 8, [f] * 7).is_trivial
    # x2 on Z/16 reaches 0 four levels down, so only the chains into levels
    # up to depth - 8 settle: at depth 9 those into levels 2-5 do not, and
    # the scan from the top descends to levels 1 and 0
    g, f = Z(16), hom(Z(16), Z(16), [[2]])
    for depth in (9, 12):
        tower, maps = [g] * depth, [f] * (depth - 1)
        assert inverse_limit(tower, maps).is_trivial
        assert inverse_limit(tower, maps) == image_structure_limit(tower, maps)


def test_limit_of_constant_tower_returns_the_group():
    g = FinAb2Group((CyclicSummand(4, "t"), CyclicSummand(2, "u")))
    groups = [g] * 8
    maps = [identity_hom(g)] * 7
    assert inverse_limit(groups, maps) == g


def test_limit_rejects_free_levels():
    g = FinAb2Group((CyclicSummand(0, "f"), CyclicSummand(2, "u")))
    groups = [g] * 8
    maps = [identity_hom(g)] * 7
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
    # x2 on Z/16: the message names what settled, never a negative count
    g, f = Z(16), hom(Z(16), Z(16), [[2]])
    for depth, message in (
        (3, r"settled into 0 level\(s\)"),
        (4, "image chain into level 0"),
        (6, "image chain into level 0"),
        (8, r"settled into 1 level\(s\)"),
    ):
        with pytest.raises(NotStabilized, match=message):
            inverse_limit([g] * depth, [f] * (depth - 1))


def test_limit_rejects_mismatched_maps():
    groups, maps = reduction_tower(8)
    with pytest.raises(ValueError):
        inverse_limit(groups, maps[:-1])


def test_limit_reads_the_tail_of_the_tower():
    """Z/4{g0} + Z/2^(s+1){g1} along the identity on g0 and reduction on
    g1.  Sorted by order the two chains trade places after level 0, so the
    positions of every stable level read orders 4, 4, 8, 16, 32, which is
    neither constant nor doubling; the last two levels give the free chain
    and Z/4."""
    groups = [Z(4, 2 ** (s + 1)) for s in range(8)]
    maps = [hom(groups[s + 1], groups[s], [[1, 0], [0, 1]]) for s in range(7)]
    assert inverse_limit(groups, maps) == FinAb2Group((CyclicSummand(0, "g1"), CyclicSummand(4, "g0")))


def image_structure_limit(tower, maps):
    """inverse_limit as it read its chains before they were read by order:
    a labeled image at every depth, compared with the image where the
    current run began by structure().  The limit is read from the last two
    stable images."""
    stable = []
    for k in range(len(tower) - WINDOW + 1):
        comp = identity_hom(tower[k])
        first, run = image(comp), 1
        for f in maps[k:]:
            if run == WINDOW:
                break
            comp = comp.compose(f)
            img = image(comp)
            first, run = (first, run + 1) if img.structure() == first.structure() else (img, 1)
        if run < WINDOW:
            if k == 0:
                raise NotStabilized("image chain into level 0 not constant")
            break
        stable.append(first)
    if len(stable) < 2:
        raise NotStabilized("image chains settled into fewer than two levels")
    below, last = (sorted(g.summands, key=lambda s: (-s.order, s.label)) for g in stable[-2:])
    if len(below) != len(last):
        raise NotStabilized("stable images change their number of summands")
    result = []
    for lo, hi in zip(below, last):
        if hi.order == lo.order:
            result.append(hi)
        elif hi.order == 2 * lo.order:
            result.append(CyclicSummand(0, hi.label))
        else:
            raise NotStabilized(f"no constant or doubling pattern in orders {[lo.order, hi.order]}")
    return FinAb2Group(tuple(result))


@st.composite
def finite_towers(draw):
    """WINDOW + 1 to 12 levels of 1-3 cyclic summands of order <= 16, each
    map scaled so that it respects the orders.  Half of the time the levels
    all have the same orders, and half of the time a diagonal entry is odd
    wherever the orders allow it, so that chains settle often and onto
    nonzero images."""
    level_orders = st.lists(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=3)
    depth = draw(st.integers(WINDOW + 1, 12))
    if draw(st.booleans()):
        orders = [draw(level_orders)] * depth
    else:
        orders = [draw(level_orders) for _ in range(depth)]
    units = draw(st.booleans())
    maps = []
    for lo, hi in zip(orders, orders[1:]):
        cols = []
        for j, o in enumerate(hi):
            col = []
            for i, oc in enumerate(lo):
                step = oc // gcd(o, oc)
                if units and i == j and step == 1:
                    col.append(2 * draw(st.integers(0, oc // 2 - 1)) + 1)
                else:
                    col.append(step * draw(st.integers(0, oc // step - 1)))
            cols.append(col)
        maps.append(hom(Z(*hi), Z(*lo), cols))
    return [Z(*o) for o in orders], maps


@settings(max_examples=200, deadline=None)
@given(finite_towers())
def test_limit_reads_chains_by_image_order(tower_and_maps):
    """Reading each chain by image order gives the limit that labeled images
    compared by structure give, labels included, and fails in the same
    cases."""
    tower, maps = tower_and_maps
    try:
        want = image_structure_limit(tower, maps)
    except NotStabilized:
        with pytest.raises(NotStabilized):
            inverse_limit(tower, maps)
    else:
        assert inverse_limit(tower, maps) == want
