"""Finitely generated abelian 2-groups with labeled generators.

Groups are direct sums of cyclic pieces; order 0 marks a free rank-1
summand over the 2-adic integers, any other order is a power of 2.
Homomorphisms are integer matrices (column i = image of the i-th domain
generator).  Kernels, cokernels and images run through one elimination
kernel that diagonalizes over the integers localized at 2 (pivot of least
2-adic valuation); each returns the group alone, its generators labeled by
the smallest contributing domain (kernel, image) or codomain (cokernel)
generator; a kernel applies the one lattice routine twice.  Inverse limits
take towers of finite groups: each chain of images into a level shrinks,
so it is read by the orders of its images alone, computed only until the
first stable run (Mittag-Leffler stabilization), on composites carried as
matrices.  The levels whose chains settle form a prefix, read from the
top down until two have settled; only their stable images, the tail the
limit depends on, are built as homomorphisms and labeled.

Everything is exact over arbitrary-precision integers: odd factors are
units 2-locally and get discarded.  All values are immutable
after construction and every operation is a pure function, so concurrent
read-only use is safe.  So the answers of `kernel`, `cokernel` and
`image`, and the image orders that `inverse_limit` measures, are memoised
on the matrix, orders and labels they read: equal inputs get the answer a
recomputation would give, labels included.  Each memo is bounded, keeping
only the MEMO_SIZE most recently used answers, so a deep tower's groups
do not stay resident; no other module keeps a bounded memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from operator import mul
from typing import Sequence

from .errors import NotStabilized

Matrix = list[list[int]]
# a homomorphism's matrix as GroupHom stores it, hashable
Rows = tuple[tuple[int, ...], ...]

# Consecutive depths over which an image chain must stay constant before
# inverse_limit reads it as stable.
WINDOW = 4

# Answers kept by each memo here.  A verify run asks again mostly for
# answers it built a few calls before.
MEMO_SIZE = 16


# ---------------------------------------------------------------------------
# exact integer matrices


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _two_part(d: int) -> int:
    """Largest power of 2 dividing d (d != 0)."""
    return d & -d


def _snf_ext(mat: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix over the integers localized at 2.

    Returns (U, D, V, Uinv) with U*mat*V = D diagonal, U unimodular with
    integer inverse Uinv, and V integral with odd determinant.  The nonzero
    diagonal entries come first with ascending 2-parts; their odd parts are
    units 2-locally and carry no meaning.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    D = [list(map(int, row)) for row in mat]
    for row in D:
        if len(row) != nc:
            raise ValueError("ragged matrix")
    U, Uinv = _identity(nr), _identity(nr)
    V = _identity(nc)

    for t in range(min(nr, nc)):
        # pivot: the first entry of least 2-adic valuation; an odd one ends the scan
        piv, best = None, 0
        for i in range(t, nr):
            for j in range(t, nc):
                v = D[i][j] & -D[i][j]
                if v and (piv is None or v < best):
                    piv, best = (i, j), v
                    if v == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        D[t], D[i] = D[i], D[t]
        U[t], U[i] = U[i], U[t]
        for r in Uinv:
            r[t], r[i] = r[i], r[t]
        for r in D + V:
            r[t], r[j] = r[j], r[t]

        # clear the pivot column with unimodular row steps
        for i in range(t + 1, nr):
            b = D[i][t]
            if not b:
                continue
            a = D[t][t]
            if b % a == 0:  # row_i -= q * row_t
                q = b // a
                D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                for r in Uinv:
                    r[t] += q * r[i]
                continue
            # (row_t, row_i) <- (x*row_t + y*row_i, -b/g*row_t + a/g*row_i),
            # determinant x*a/g + y*b/g = 1
            g, x, y = _xgcd(a, b)
            ag, bg = a // g, b // g
            for M in (D, U):
                M[t], M[i] = (
                    [x * p + y * q for p, q in zip(M[t], M[i])],
                    [ag * q - bg * p for p, q in zip(M[t], M[i])],
                )
            for r in Uinv:
                r[t], r[i] = ag * r[t] + bg * r[i], x * r[i] - y * r[t]

        # clear the pivot row: C_j <- u*C_j - (b_j / 2^v)*C_t for the pivot
        # u*2^v, u odd; column t is never touched, so nothing refills
        a = D[t][t]
        two = a & -a
        u = a // two
        for j in range(t + 1, nc):
            q = D[t][j] // two
            if q:
                for r in D + V:
                    r[j] = u * r[j] - q * r[t]

    return U, D, V, Uinv


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = +-gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def _apply(mat: Matrix, x: Sequence[int]) -> list[int]:
    return [sum(p * q for p, q in zip(row, x)) for row in mat]


def _product(a: Rows, b: Rows, k: int, cod_orders: Sequence[int]) -> Rows:
    """a after b, b with k columns, reduced modulo cod_orders as GroupHom stores it."""
    cols = list(zip(*b)) or [()] * k
    rows = ([sum(map(mul, row, col)) for col in cols] for row in a)
    return tuple(tuple([v % o for v in row]) if o else tuple(row) for o, row in zip(cod_orders, rows))


def _pivots(D: Matrix) -> list[int]:
    """The nonzero diagonal entries of a diagonalized matrix, in order."""
    bound = min(len(D), len(D[0])) if D else 0
    return [D[i][i] for i in range(bound) if D[i][i]]


# ---------------------------------------------------------------------------
# groups and homomorphisms


@dataclass(frozen=True)
class CyclicSummand:
    """One cyclic piece: order 0 is a free rank-1 summand over the 2-adic
    integers, any other order is a power of 2 at least 2."""

    order: int
    label: str

    def __post_init__(self):
        if self.order < 0 or (self.order and self.order & (self.order - 1)) or self.order == 1:
            raise ValueError(f"order must be 0 or a power of 2 >= 2, got {self.order}")
        if not self.label:
            raise ValueError("empty generator label")


@dataclass(frozen=True)
class FinAb2Group:
    summands: tuple[CyclicSummand, ...]
    # read off the summands once, at construction
    orders: tuple[int, ...] = field(init=False, compare=False)
    labels: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self):
        labels = tuple(s.label for s in self.summands)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate generator labels: {list(labels)}")
        object.__setattr__(self, "orders", tuple(s.order for s in self.summands))
        object.__setattr__(self, "labels", labels)

    @classmethod
    def trivial(cls) -> "FinAb2Group":
        return cls(())

    @property
    def ngens(self) -> int:
        return len(self.summands)

    @property
    def free_rank(self) -> int:
        return sum(1 for s in self.summands if s.order == 0)

    @property
    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(s.order for s in self.summands if s.order)

    @property
    def is_trivial(self) -> bool:
        return not self.summands

    def structure(self) -> tuple[int, tuple[int, ...]]:
        """Isomorphism invariant: (free rank, torsion orders sorted descending)."""
        return self.free_rank, tuple(sorted(self.torsion_orders, reverse=True))


def _reduce_entry(value: int, order: int) -> int:
    return value % order if order else value


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given on generators; column j of `matrix` is the image
    of domain generator j in codomain coordinates, reduced modulo the
    codomain summand orders."""

    domain: FinAb2Group
    codomain: FinAb2Group
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dom, cod = self.domain.orders, self.codomain.orders
        if len(self.matrix) != len(cod) or any(len(row) != len(dom) for row in self.matrix):
            raise ValueError(f"matrix shape must be {len(cod)}x{len(dom)}")
        reduced = tuple(tuple([v % oc for v in row]) if oc else tuple(row) for oc, row in zip(cod, self.matrix))
        # o_dom(j) * column_j must vanish in the codomain
        for oc, row in zip(cod, reduced):
            for o, v in zip(dom, row):
                if o and (o * v % oc if oc else v):
                    raise ValueError(f"matrix {reduced} incompatible with generator orders {dom} -> {cod}")
        object.__setattr__(self, "matrix", reduced)

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("homomorphisms not composable")
        rows = _product(self.matrix, other.matrix, other.domain.ngens, self.codomain.orders)
        return GroupHom(other.domain, self.codomain, rows)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.matrix for v in row)


# ---------------------------------------------------------------------------
# kernels, cokernels, images


def _group(orders, vectors, labels, moduli) -> FinAb2Group:
    """Summands of the given orders, one per generator vector, each labeled
    by the smallest label at a coordinate where its vector is nonzero
    modulo `moduli`; a label taken again gets the suffix ~2, ~3, ..."""
    seen: dict[str, int] = {}
    summands = []
    for o, vector in zip(orders, vectors):
        cands = [lbl for lbl, v, m in zip(labels, vector, moduli) if (v % m if m else v)]
        if not cands:
            raise AssertionError("generator vector vanished")
        lbl = min(cands)
        seen[lbl] = count = seen.get(lbl, 0) + 1
        summands.append(CyclicSummand(o, lbl if count == 1 else f"{lbl}~{count}"))
    return FinAb2Group(tuple(summands))


def _quotient_presentation(R: Matrix):
    """Structure of Z^n / <columns of R> as a 2-local group, n = len(R).

    Returns (orders, gen_cols, proj_rows): the 2-power (or 0) orders of the
    surviving summands, each new generator as a Z^n column, and each
    projection row expressing old coordinates in the new generators.
    """
    n = len(R)
    U, D, _, Uinv = _snf_ext(R)
    piv = _pivots(D)
    orders = [_two_part(d) for d in piv] + [0] * (n - len(piv))
    surviving = [i for i in range(n) if orders[i] != 1]
    gen_cols = [[Uinv[row][i] for row in range(n)] for i in surviving]
    proj_rows = [
        [_reduce_entry(U[i][j], orders[i]) for j in range(n)] for i in surviving
    ]
    return [orders[i] for i in surviving], gen_cols, proj_rows


def _relation_matrix(matrix: Sequence[Sequence[int]], cod_orders: Sequence[int]) -> Matrix:
    """matrix followed by the column o*e_i of each torsion order o = cod_orders[i]:
    y lies in the image of the map exactly when y is this matrix times an
    integer vector, and x in its kernel exactly when x extends to a
    solution of the homogeneous system."""
    torsion = [(i, o) for i, o in enumerate(cod_orders) if o]
    return [
        list(row) + [o if i == ti else 0 for ti, o in torsion]
        for i, row in enumerate(matrix)
    ]


def _kernel_lattice(matrix: Sequence[Sequence[int]], cod_orders: Sequence[int], k: int) -> Matrix:
    """A k-row matrix whose columns span, 2-locally, the x in Z^k with
    matrix @ x = 0 modulo cod_orders (order 0: exactly 0)."""
    if not cod_orders:
        return _identity(k)
    _, D, V, _ = _snf_ext(_relation_matrix(matrix, cod_orders))
    rank = len(_pivots(D))
    return [row[rank:] for row in V[:k]]


# The lattice answers below are memoised on the plain tuples they read (a
# hom's matrix and its groups' orders and labels), not on the hom: a memo
# entry then keeps no group objects alive, and homs that differ only where
# the answer does not look share one entry.
def kernel(h: GroupHom) -> FinAb2Group:
    """The kernel, a subgroup of the domain labeled by domain generators:
    with X (k x c) spanning the x in Z^k with h(x) = 0, it is Z^c modulo
    the kernel lattice of X into the domain, labeled through X."""
    return _kernel(h.matrix, h.codomain.orders, h.domain.orders, h.domain.labels)


@lru_cache(maxsize=MEMO_SIZE)
def _kernel(matrix: Rows, cod_orders: tuple[int, ...], dom_orders: tuple[int, ...], dom_labels: tuple[str, ...]) -> FinAb2Group:
    X = _kernel_lattice(matrix, cod_orders, len(dom_orders))
    c = len(X[0]) if X else 0
    orders, gen_cols, _ = _quotient_presentation(_kernel_lattice(X, dom_orders, c))
    return _group(orders, [_apply(X, g) for g in gen_cols], dom_labels, dom_orders)


def cokernel(h: GroupHom) -> FinAb2Group:
    """The cokernel.  A surviving class keeps the lexicographically smallest
    contributing codomain generator label."""
    return _cokernel(h.matrix, h.codomain.orders, h.codomain.labels)


@lru_cache(maxsize=MEMO_SIZE)
def _cokernel(matrix: Rows, cod_orders: tuple[int, ...], cod_labels: tuple[str, ...]) -> FinAb2Group:
    orders, _, proj_rows = _quotient_presentation(_relation_matrix(matrix, cod_orders))
    # each projection row is already reduced modulo its class's order
    return _group(orders, proj_rows, cod_labels, (0,) * len(cod_orders))


def image(h: GroupHom) -> FinAb2Group:
    """The image, a subgroup of the codomain labeled by domain generators."""
    return _image(h.matrix, h.codomain.orders, h.domain.orders, h.domain.labels)


@lru_cache(maxsize=MEMO_SIZE)
def _image(matrix: Rows, cod_orders: tuple[int, ...], dom_orders: tuple[int, ...], dom_labels: tuple[str, ...]) -> FinAb2Group:
    orders, gen_cols, _ = _quotient_presentation(_kernel_lattice(matrix, cod_orders, len(dom_orders)))
    return _group(orders, gen_cols, dom_labels, dom_orders)


@lru_cache(maxsize=MEMO_SIZE)
def _image_order(matrix: Rows, cod_orders: tuple[int, ...]) -> int:
    """|Im h| = |codomain| / |cokernel| for a hom with this matrix into a
    finite codomain of these orders, from one elimination."""
    _, D, _, _ = _snf_ext(_relation_matrix(matrix, cod_orders))
    return prod(cod_orders) // prod(map(_two_part, _pivots(D)))


# ---------------------------------------------------------------------------
# inverse limits


def inverse_limit(tower: Sequence[FinAb2Group], maps: Sequence[GroupHom]) -> FinAb2Group:
    """Limit of the finite system tower[0] <- tower[1] <- ... along maps[s]:
    tower[s+1] -> tower[s].

    For each level k the images Im(tower[m] -> tower[k]) shrink as m grows,
    and the levels are finite, so two of them are the same subgroup exactly
    when they have the same order.  Their orders are computed one depth at
    a time, each composite a reduced matrix, until WINDOW consecutive ones
    agree (the Mittag-Leffler condition, read on a finite tower), and the
    composite that began that run gives the level's stable image.  A limit
    depends only on the last two levels whose chains settle, a prefix, so
    the chains are read from level T - WINDOW down until two have settled,
    and only their stable composites become homomorphisms, whose images are
    built, with labels, and matched summand by summand in order of size: a
    chain whose order doubles contributes a free 2-adic summand, a chain of
    constant order contributes that torsion summand, and chains with
    eventually-zero transition maps contribute nothing.
    """
    T = len(tower)
    if any(g.free_rank for g in tower):
        raise ValueError("inverse limits take finite levels only")
    if len(maps) != max(T - 1, 0):
        raise ValueError("need exactly one map per adjacent pair of levels")
    for s, f in enumerate(maps):
        if f.domain != tower[s + 1] or f.codomain != tower[s]:
            raise ValueError(f"map {s} does not connect tower[{s + 1}] -> tower[{s}]")
    if T == 0:
        return FinAb2Group.trivial()

    # Im(m -> k-1) is the image of Im(m -> k), so a run of equal image orders into
    # level k maps onto one into k-1: the settled levels form a prefix, its last two found first.
    stable = []  # (domain, codomain, matrix) of each level's stable composite, top first
    for k in range(T - WINDOW, -1, -1):
        orders = tower[k].orders
        comp = first = _identity(len(orders))  # reduced: every order is at least 2
        dom, size, run = tower[k], prod(orders), 1  # first's domain and |Im first|, where the current run began
        for f in maps[k:]:
            if run == WINDOW:
                break
            comp = _product(comp, f.matrix, f.domain.ngens, orders)
            order = _image_order(comp, orders)
            first, dom, size, run = (first, dom, size, run + 1) if order == size else (comp, f.domain, order, 1)
        if run == WINDOW:
            stable.append((dom, tower[k], first))
            if len(stable) == 2:
                break
    if T >= WINDOW and not stable:  # level 0, scanned last, did not settle either
        raise NotStabilized(f"image chain into level 0 not constant for {WINDOW} consecutive depths")
    if len(stable) < 2:
        raise NotStabilized(
            f"tower depth {T} too shallow for window {WINDOW}: image chains settled into {len(stable)} level(s), the limit needs two"
        )

    below, last = (sorted(image(GroupHom(*f)).summands, key=lambda s: (-s.order, s.label)) for f in stable[::-1])
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
