"""Combinatorial normal forms for faces of chain-order polytopes.

A face of the chain-order polytope of a maximal ranked poset at cut k is
identified by three pieces of data:

* a face partition ``pi`` of the order-side elements together with the
  adjoined maximum (elements in the same block share a coordinate value, and a
  block containing the maximum is pinned to 1);
* per chain-side rank, the set of coordinates pinned to zero;
* optionally, per rank through the cut, the sets of elements carried by the
  tight chain rows ("eq sets"), with the rank just above the cut recording
  where those chains end.

The eq data is either absent (no chain row is tight) or present, and presence
with all-empty sets is meaningful: it occurs when every chain-side rank is
fully zeroed and the tight chains end in the unique glued block above the cut.
Enumeration within the face budget ``MAX_FACES`` (a stream in canonical
order, grouped by partition), codimension, f-vector counting by one bottom-up
rank fold per cut, the order and chain f-vectors of every partition of n by
one depth-first walk that folds each shared prefix once, and a
codimension-preserving injection from cut k to k+1, whose partition half is
computed once per run of source forms sharing a partition, live here.  The
fold multiplies a row vector by one 2x2 transfer matrix per rank,
M_c = diag(g, c) on the chain side and M_o = [[1, g - 1], [p, s]] on the
order side (`_rank_matrix`).
Each entry point taking (tau, k) checks the cut by `check_cut`, which raises
`ConfigError`; `codimension`, `psi_map` and the per-cut caches trust their input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .errors import MAX_FACES, ConfigError, face_budget_error
from .posets import (
    BOTTOM,
    TOP,
    Poset,
    check_cut,
    check_partition_masks,
    check_tau,
    extend_poset,
    make_maximal_ranked,
    partition_masks,
    validate_face_partition,  # not called here; perfbench wraps it at this module
)

Element = tuple[int, int]
Block = tuple[Element, ...]

# Per-(tau, k) structures are memoised: the injection audit asks for the same
# few of them thousands of times.  Arguments must be checked tuples.
_CACHE_SIZE = 1024


class FaceNormalForm(NamedTuple):
    """Canonical face data: partition blocks, zero sets, optional eq sets.

    ``pi`` partitions the order-side elements plus the adjoined maximum
    (rank len(tau)+1, index 1).  ``zero_sets[i-1]`` is the zero set of rank i
    for 1 <= i <= k.  ``eq_sets`` is None when no chain row is tight, else a
    tuple of length k+1 whose last entry lists where the tight chains end.
    A named tuple, since the audit builds one per source form and per image:
    two forms are equal when their three fields are, and a form unpacks as
    (pi, zero_sets, eq_sets).  A plain tuple is not a form.
    """

    pi: tuple[Block, ...]
    zero_sets: tuple[tuple[Element, ...], ...]
    eq_sets: tuple[tuple[Element, ...], ...] | None

    def sort_key(self):
        return (self.pi, self.zero_sets, self.eq_sets is not None, self.eq_sets or ())


def top_element(tau) -> Element:
    return (len(tau) + 1, 1)


@lru_cache(maxsize=_CACHE_SIZE)
def rank_elements(tau: tuple[int, ...], r: int) -> tuple[Element, ...]:
    if r == len(tau) + 1:
        return (top_element(tau),)
    return tuple((r, t) for t in range(1, tau[r - 1] + 1))


@lru_cache(maxsize=_CACHE_SIZE)
def order_ground(tau: tuple[int, ...], k: int) -> tuple[Element, ...]:
    """Order-side elements plus the adjoined maximum, in rank-major order."""
    return tuple(e for r in range(k + 1, len(tau) + 2) for e in rank_elements(tau, r))


def _canonical_partition(blocks) -> tuple[Block, ...]:
    return tuple(sorted(map(tuple, map(sorted, blocks))))


def _subsets(elems, least=0):
    """Subsets of ``elems`` with at least ``least`` elements, by size."""
    for size in range(least, len(elems) + 1):
        yield from combinations(elems, size)


def face_partitions(tau, k: int) -> list[tuple[Block, ...]]:
    """All face partitions of the order side plus the adjoined maximum.

    Valid blocks of such a partition are either singletons or span an interval
    of ranks: a nonempty bottom subset, every intermediate rank in full, and a
    nonempty top subset.  Two multi-rank blocks may share a boundary rank but
    their spans cannot cross, so at most one block is open at a time.  One
    loop folds the ranks bottom up over states (closed blocks, open block or
    ()), the states `_fold` counts as (a, b).  The open block takes the
    whole rank, or ends on a nonempty part of it; then a nonempty subset of
    the free elements may open a new block, the rest close as singletons, and
    none opens or stays open at the last rank.  Blocks grow in index order,
    sorted as built, so one sort per final state makes it canonical.
    """
    tau = check_cut(tau, k)
    ranks = [rank_elements(tau, r) for r in range(k + 1, len(tau) + 2)]
    states: list[tuple[tuple[Block, ...], Block]] = [((), ())]
    for idx, elems in enumerate(ranks):
        last = idx == len(ranks) - 1
        nxt = []
        for closed, open_ in states:
            ends = [(closed, elems)]  # (closed blocks, elements left free)
            if open_:
                if not last:
                    nxt.append((closed, open_ + elems))
                ends = [(closed + (open_ + top,), tuple(e for e in elems if e not in top)) for top in _subsets(elems, 1)]
            for done, free in ends:
                nxt.append((done + tuple((e,) for e in free), ()))
                if not last:
                    nxt.extend((done + tuple((e,) for e in free if e not in new), new) for new in _subsets(free, 1))
        states = nxt
    return [tuple(sorted(closed)) for closed, _ in states]


def induced_order_poset(tau, k: int) -> Poset:
    """The order side of P_tau at cut k: `make_maximal_ranked` restricted to
    the ranks above k.  It is an up-set, so its covers are exactly P_tau's
    covers whose lower end has rank above k."""
    p = make_maximal_ranked(check_cut(tau, k))
    return Poset(tuple(e for e in p.elements if e[0] > k), tuple(c for c in p.covers if c[0][0] > k))


@lru_cache(maxsize=_CACHE_SIZE)
def _extended_order_poset(tau: tuple[int, ...], k: int) -> tuple[Poset, dict]:
    """The extended order side, and its positions with the maximum in TOP's place."""
    ep = extend_poset(induced_order_poset(tau, k))
    return ep, {top_element(tau) if e is TOP else e: i for e, i in ep.index.items()}


def _glued_block(pi, r: int) -> Block | None:
    """The non-singleton block that starts at rank r, ``b[0][0]`` in a
    canonical partition, if any.  Every caller asks about rank k + 1, the
    lowest of the order side, of a valid partition at cut k: a block meeting
    that rank starts there and, being connected, cannot end there too.  At
    most one block does: each element of rank k + 1 lies below all elements
    above it, so each of two such blocks would lie below the other.
    """
    return next((b for b in pi if len(b) > 1 and b[0][0] == r), None)


def _in_order(s, allowed) -> bool:
    """Whether s is a tuple of some of ``allowed`` in their order, each once."""
    return s == () or isinstance(s, tuple) and s == tuple([e for e in allowed if e in s])


def _chain_end_facts(pi, tau: tuple[int, ...], k: int) -> tuple[tuple[Element, ...], bool]:
    """The singletons of rank k + 1 in a canonical face partition ``pi`` at
    cut k, in order, by one pass over ``pi``; and, if there are none, whether
    the block gluing that rank upward holds the adjoined maximum (then a
    chain ending in it is pinned to one)."""
    singles = tuple([b[0] for b in pi if len(b) == 1 and b[0][0] == k + 1])
    return singles, not singles and top_element(tau) in (_glued_block(pi, k + 1) or ())


def _partition_reason(pi, tau: tuple[int, ...], k: int):
    """The partition half of `is_valid_normal_form`, which depends on ``pi``
    alone: (reason, None) if ``pi`` is not a canonical face partition at cut
    k, else (None, `_chain_end_facts`).  ``tau`` and ``k`` must be checked.
    """
    ep, index = _extended_order_poset(tau, k)
    try:
        masks = partition_masks(ep, [*pi, (BOTTOM,)], index)
    except (ValueError, TypeError) as exc:
        return f"pi does not partition the order side: {exc}", None
    if pi != _canonical_partition(pi):
        if not isinstance(pi, tuple) or not all(isinstance(b, tuple) for b in pi):
            return "pi must be a tuple of blocks, each a tuple", None
        return "pi is not sorted blockwise and within its blocks", None
    if not (check := check_partition_masks(ep, masks)).valid:
        return f"pi is not a face partition: {check.reason}", None
    return None, _chain_end_facts(pi, tau, k)


def is_valid_normal_form(nf: FaceNormalForm, tau, k: int) -> tuple[bool, str | None]:
    """Full validity check; returns (ok, reason), but a bad tau or cut raises.

    Only the canonical encoding passes, the one `enumerate_normal_forms` and
    `psi_map` build: sorted blocks, each sorted, and every zero set, eq set
    and chain-end set a tuple of its allowed elements in rank order, so that
    equal faces have equal forms.  An entry of the wrong type is a reason too.
    """
    tau = check_cut(tau, k)
    reason = _form_reason(nf, tau, k, {}, {})
    return reason is None, reason


def _form_reason(nf, tau: tuple[int, ...], k: int, partitions: dict, ranks: dict) -> str | None:
    """Why ``nf`` is not a valid normal form at cut k, or None if it is.

    ``partitions`` memoises `_partition_reason` by ``pi``, and ``ranks`` the
    per-rank checks of the rest: a zero set by (rank, zero set), an eq set by
    (rank, zero set, eq set), as `_eq_reason`.  Both hold for this one cut,
    across the caller's forms; an unhashable key is checked in full each
    time.  The chain ends, which read the partition, are checked per form.
    The checks run in a fixed order, and the first failing one is the reason.
    """
    if not isinstance(nf, FaceNormalForm):
        return f"{type(nf).__name__} is not a FaceNormalForm"
    pi, zero_sets, eq_sets = nf
    try:
        reason, facts = partitions[pi]
    except KeyError:
        reason, facts = partitions[pi] = _partition_reason(pi, tau, k)
    except TypeError:
        reason, facts = _partition_reason(pi, tau, k)
    if reason is not None:
        return reason
    if not isinstance(zero_sets, tuple) or len(zero_sets) != k:
        return "zero_sets must be a tuple of one entry per chain-side rank"
    for i, zeros in enumerate(zero_sets, 1):
        try:
            ok = ranks[i, zeros]
        except KeyError:
            ok = ranks[i, zeros] = _in_order(zeros, rank_elements(tau, i))
        except TypeError:
            ok = _in_order(zeros, rank_elements(tau, i))
        if not ok:
            return f"zero set of rank {i} is not a tuple of its rank's elements in order"
    if eq_sets is None:
        return None
    if not isinstance(eq_sets, tuple) or len(eq_sets) != k + 1:
        return "eq_sets must be None or a tuple of one entry per rank through the cut"
    all_zeroed = True
    for i, zeros, eq in zip(range(1, k + 1), zero_sets, eq_sets):
        try:
            reason, free = ranks[i, zeros, eq]
        except KeyError:
            reason, free = ranks[i, zeros, eq] = _eq_reason(tau, i, zeros, eq)
        except TypeError:
            reason, free = _eq_reason(tau, i, zeros, eq)
        if reason is not None:
            return reason
        if free:
            all_zeroed = False
    tops = eq_sets[k]
    if k == len(tau):
        if tops != (top_element(tau),):
            return "tight chains at the full cut must end at the adjoined maximum"
        forced_one = True
    else:
        singles, forced_one = facts
        if not _in_order(tops, singles):
            return "chain ends are not singletons of the first order rank in order"
        if tops:
            forced_one = False
        elif singles:  # a face partition glues the rank upward only when whole
            return "empty chain end needs the whole first order rank glued upward"
    if all_zeroed and forced_one:
        return "all chain ranks zeroed with the chain end pinned to one: empty face"
    return None


def _eq_reason(tau: tuple[int, ...], i: int, zeros, eq) -> tuple[str | None, bool]:
    """The eq-set check of chain rank i, whose zero set ``zeros`` is valid:
    (why ``eq`` is not a valid eq set there, or None; whether the rank has
    free elements)."""
    free = tuple([e for e in rank_elements(tau, i) if e not in zeros])
    if not _in_order(eq, free):
        return f"eq set of rank {i} is not a tuple of its free elements in order", bool(free)
    if free and not eq:
        return f"rank {i} has free elements but an empty eq set", True
    return None, bool(free)


def codimension(nf: FaceNormalForm, tau, k: int) -> int:
    """Codimension of the encoded face.

    Without tight chains this is the block-merging deficiency plus the number
    of zeros; with tight chains, one more for the chain equation itself plus
    the size excess of every nonempty eq set.  ``nf`` must be a valid normal
    form for ``tau`` and ``k``, as for `psi_map`; it is not validated here.
    """
    pi, zero_sets, eq_sets = nf
    codim = len(order_ground(tuple(tau), k)) - len(pi) + sum(map(len, zero_sets))
    if eq_sets is not None:  # len(s) - 1 for each nonempty eq set s
        codim += 1 + sum(map(len, eq_sets)) - len(eq_sets) + eq_sets.count(())
    return codim


def enumerate_normal_forms(tau, k: int) -> list[FaceNormalForm]:
    """All valid normal forms, one per nonempty face, in `FaceNormalForm.sort_key`
    order by construction: the list of `_normal_forms`, with no sort."""
    return list(_normal_forms(tau, k))


def _normal_forms(tau, k: int):
    """The normal forms of `enumerate_normal_forms`, streamed in canonical order.

    The cut and the face budget are checked on the call, before any form is
    built: the forms are counted exactly by the counter's generating function
    at x = 1 and refused past ``MAX_FACES``.  The chain-side choices, built
    once and sorted, are per zero sets the sorted eq-set prefixes (a nonempty
    subset of each rank's free elements, or () where a rank is fully zeroed)
    and whether every chain rank is zeroed.  Plain nested loops pair each
    sorted face partition, valid as built, with them and its own sorted
    chain-end options, less the empty face's combination.  Per partition and
    zero sets the form without tight chains comes first, so the forms come
    in ``sort_key`` order, grouped by partition.
    """
    tau = check_cut(tau, k)
    total = _fold(tau, k, 1) - 1  # less the empty face's combination
    if total > MAX_FACES:
        raise face_budget_error(MAX_FACES, total)
    chain_ranks = [rank_elements(tau, i) for i in range(1, k + 1)]
    chain_choices = []  # (zero sets, eq-set prefixes, all chain ranks zeroed)
    for zeros in sorted(product(*map(_subsets, chain_ranks))):
        frees = [tuple(e for e in elems if e not in z) for elems, z in zip(chain_ranks, zeros)]
        prefixes = sorted(product(*[_subsets(free, 1 if free else 0) for free in frees]))
        chain_choices.append((zeros, prefixes, not any(frees)))
    partitions = sorted(face_partitions(tau, k))

    def forms():
        for pi in partitions:
            if k < len(tau):
                # tight chains end on a nonempty set of singletons, or in the
                # block that glues the whole first order rank upward
                singles, forced_one = _chain_end_facts(pi, tau, k)
                top_options = sorted(_subsets(singles, 1 if singles else 0))
            else:
                top_options, forced_one = [(top_element(tau),)], True
            for zeros, prefixes, all_zeroed in chain_choices:
                yield FaceNormalForm(pi, zeros, None)
                if not (all_zeroed and forced_one):  # else the empty face
                    for prefix in prefixes:
                        for tops in top_options:
                            yield FaceNormalForm(pi, zeros, prefix + (tops,))

    return forms()


# ---------------------------------------------------------------------------
# fast f-vector counting
# ---------------------------------------------------------------------------


def _rank_matrix(t: int, chain: bool, x: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The 2x2 transfer matrix ((m00, m01), (m10, m11)) of one rank of size
    t in `_fold`, with g = (1+x)^t.  A chain-side rank
    is M_c = diag(g, c): it grades its free zeros by g in the forms without
    tight chains and its zero/eq choices by c = ((1+2x)^t - g)/x + x^t in
    those with them.  An order-side rank is M_o = [[1, g - 1], [p, s]]:
    ``p`` = (g - 1)/x grades a nonempty subset of the rank by its size - 1,
    where what reaches up ends on it, or, times x, a new block starts on it.
    ``s`` is x^t for what reaches up taking the whole rank, plus it ending on
    some elements while a new block starts on others.  All divisions by x
    are exact, and c - s = p, so M_c - M_o = p (x, -1)^T (1, -1)."""
    grow, both = (1 + x) ** t, (1 + 2 * x) ** t
    if chain:
        return (grow, 0), (0, (both - grow) // x + x**t)
    return (1, grow - 1), ((grow - 1) // x, (both - 2 * grow + 1) // x + x**t)


def _fold(tau: tuple[int, ...], k: int, x: int) -> int:
    """The generating function of the normal forms at cut k by codimension,
    at x.  The fold is a row vector (a, b) from rank 1 upward, from (1, x):
    the forms on the ranks so far with nothing, or with one thing, reaching
    up, a block of the order side or, below it, the tight chains (graded x
    for their equation), which end on the first order rank as a block does.
    Each rank multiplies it by its `_rank_matrix`, M_c below the cut and M_o
    above it.  The adjoined maximum, where everything ends, closes the fold
    as a + b.
    """
    fold = (1, x)
    for i, t in enumerate(tau):
        fold = _times(fold, _rank_matrix(t, i < k, x))
    return sum(fold)


def _times(fold: tuple[int, int], m) -> tuple[int, int]:
    """The row vector ``fold`` times the 2x2 matrix ``m``."""
    (a, b), ((m00, m01), (m10, m11)) = fold, m
    return a * m00 + b * m10, a * m01 + b * m11


def _f_vector_digits(total: int, w: int, n: int) -> tuple[int, ...]:
    """The f-vector in the base-2^w digits of the count at x = 2^w, checked.

    Every caller takes w = (2 * 3**n).bit_length().  At x = 1 every
    `_rank_matrix` entry is >= 0 and each row sums to at most 3^t, so a fold
    from (1, 1) totals at most 2 * 3^n (3^n + 1 at tau = (n,)), which bounds
    every coefficient: each fits in its digit, and no count at x = 1 is
    needed to pick w.  The one overdetermined combination (all chain ranks
    zeroed, chain end pinned to one) lands at codimension n+1 and is removed;
    its coefficient must be 1, as must the polytope's, at 0.
    """
    mask = (1 << w) - 1
    counts = [(total >> (w * d)) & mask for d in range(n + 2)]
    if counts[n + 1] != 1 or total >> (w * (n + 2)):
        raise AssertionError("normal-form count has unexpected high-codimension terms")
    if counts[0] != 1:
        raise AssertionError("normal-form count lost the whole polytope")
    return tuple(counts[n:0:-1])


def f_vector_normal_form(tau, k: int) -> tuple[int, ...]:
    """f-vector of the chain-order polytope at cut k, by counting normal
    forms: the cut is checked, then one `_fold` at x = 2^W (Kronecker
    substitution) is read by `_f_vector_digits`."""
    tau = check_cut(tau, k)
    w = (2 * 3 ** sum(tau)).bit_length()
    return _f_vector_digits(_fold(tau, k, 1 << w), w, sum(tau))


def partition_f_vectors(n: int):
    """(tau, order f-vector, chain f-vector) for each partition tau of n >= 1,
    parts non-increasing, in lexicographic order, by one depth-first walk
    with no list and no sort: each level tries its parts in ascending order,
    each at most the part before.  The (a, b) of `_fold` on the prefix, at
    k = 0 and at k = len(tau), goes down the recursion, so a rank is folded
    once for all the partitions that share its prefix.  The walk builds each
    (size, side) matrix once, at the one x = 2^W of ``n``."""
    w = (2 * 3**n).bit_length()
    x = 1 << w
    matrices = {(t, chain): _rank_matrix(t, chain, x) for t in range(1, n + 1) for chain in (False, True)}

    def walk(tau, left, order, chain):
        if not left:
            yield tau, _f_vector_digits(sum(order), w, n), _f_vector_digits(sum(chain), w, n)
        for t in range(1, min(left, tau[-1] if tau else n) + 1):
            yield from walk(tau + (t,), left - t, _times(order, matrices[t, False]), _times(chain, matrices[t, True]))

    return walk((), n, (1, x), (1, x))


# ---------------------------------------------------------------------------
# the cut-raising injection
# ---------------------------------------------------------------------------


def psi_map(nf: FaceNormalForm, tau, k: int) -> FaceNormalForm:
    """Image of a face at cut k as a face at cut k+1, of equal codimension.

    Blocks contained in the two ranks around the cut are dropped, all other
    blocks lose their rank-(k+1) part, and the freed data is re-expressed as
    zeros and chain ends one level higher.  That partition half depends on
    the source partition alone and comes from `_psi_partition`; the rest
    reads the zero and eq sets.  ``nf`` must be a valid normal form of
    codimension >= 2 at a cut k < len(tau), as `verify_injection` passes;
    none of this is checked here, but a cut at the top rank raises.
    """
    tau = tuple(tau)
    if k >= len(tau):
        raise ValueError("the cut can only be raised below the top rank")
    pi2, glued, a_part, b_part, height1, sigma = _psi_partition(nf.pi, tau, k)
    if nf.eq_sets is not None:
        # chains end on a height-one block's top, in a taller one, or on the least singleton
        ends = (b_part if height1 else ()) if glued else sigma[:1]
        return FaceNormalForm(pi2, nf.zero_sets + (a_part,), nf.eq_sets + (ends,))
    # a height-one block's top part lands in singletons after the cut
    if not height1 or b_part == (min(b_part + sigma),):
        return FaceNormalForm(pi2, nf.zero_sets + (a_part,), None)
    # re-encode the block as a bundle of tight chains through least-index picks
    picks = [next(((e,) for e in rank_elements(tau, i) if e not in zeros), ()) for i, zeros in enumerate(nf.zero_sets, 1)]
    return FaceNormalForm(pi2, nf.zero_sets + ((),), (*picks, a_part, b_part))


@lru_cache(maxsize=1)  # the forms of a cut come grouped by partition
def _psi_partition(pi, tau: tuple[int, ...], k: int):
    """The half of `psi_map` that reads only the canonical source partition
    ``pi`` at cut k, by rank arithmetic on its (rank, index) ids: the image
    partition (kept blocks stay sorted, so one sort makes it canonical),
    whether a block glues rank k + 1 upward, that block's parts of ranks
    k + 1 and k + 2 (k + 2 may be the maximum's), whether it ends at rank
    k + 2, and the singletons of rank k + 2.  A pure function of its arguments.
    """
    kept = [tuple([e for e in b if e[0] != k + 1]) for b in pi if b[-1][0] > k + 2]
    used = {e for b in kept for e in b}
    pi2 = tuple(sorted(kept + [(e,) for e in order_ground(tau, k + 1) if e not in used]))
    glued = _glued_block(pi, k + 1) or ()  # its parts are () when nothing is glued
    a_part = tuple([e for e in glued if e[0] == k + 1])
    b_part = tuple([e for e in glued if e[0] == k + 2])
    height1 = bool(glued) and glued[-1][0] == k + 2
    sigma = tuple([b[0] for b in pi if len(b) == 1 and b[0][0] == k + 2])
    return pi2, bool(glued), a_part, b_part, height1, sigma


@dataclass
class InjectionReport:
    tau: tuple[int, ...]
    k: int
    per_codim_counts_src: dict[int, int]
    per_codim_counts_img: dict[int, int]
    injective: bool
    codim_preserved: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures  # clearing injective or codim_preserved adds a failure


def verify_injection(tau, k: int) -> InjectionReport:
    """Apply the cut-raising map to every face of codimension >= 2 and audit it.

    Checks image validity, codimension preservation, and pairwise distinctness
    of images, and collects failures in the report.  Every image gets every
    check of `is_valid_normal_form`, but in this call the partition half runs
    once per distinct image partition, and each zero-set or eq-set check once
    per distinct (rank, zero set) or (rank, zero set, eq set) among the
    images; the chain ends are checked per image.  The source forms stream
    from `_normal_forms` in canonical order, after the face budget has refused
    a cut with too many, and none is kept; the images are, to find collisions.
    The other helpers are bound once per audit, but `psi_map`, which may be
    replaced, is read per form.  A cut at the top rank raises `ConfigError`.
    """
    tau = check_cut(tau, k)
    if k == len(tau):
        raise ConfigError(f"verification needs a cut below the top rank {len(tau)}, got k={k}")
    n = sum(tau)
    src_counts: dict[int, int] = {}
    f_next = f_vector_normal_form(tau, k + 1)
    img_counts = {c: f_next[n - c] for c in range(2, n + 1)}
    injective = True
    preserved = True
    failures: list[str] = []
    seen: dict[FaceNormalForm, FaceNormalForm] = {}
    partitions: dict = {}  # image pi -> its `_partition_reason`, for this audit only
    ranks: dict = {}  # the per-rank checks of the images' zero and eq sets, likewise
    codim, form_reason, first_source = codimension, _form_reason, seen.setdefault
    for nf in _normal_forms(tau, k):
        cod = codim(nf, tau, k)
        if cod < 2:
            continue
        src_counts[cod] = src_counts.get(cod, 0) + 1
        img = psi_map(nf, tau, k)
        reason = form_reason(img, tau, k + 1, partitions, ranks)
        if reason is not None:
            failures.append(f"invalid image of {nf}: {reason}")
            continue
        cod2 = codim(img, tau, k + 1)
        if cod2 != cod:
            preserved = False
            failures.append(f"codimension changed {cod} -> {cod2} on {nf}")
        first = first_source(img, nf)
        if first is not nf:
            injective = False
            failures.append(f"collision: {first} and {nf} share an image")
    return InjectionReport(tau, k, src_counts, img_counts, injective, preserved, failures)


@dataclass
class MonotoneReport:
    tau: tuple[int, ...]
    f_vectors: dict[int, tuple[int, ...]]
    monotone: bool
    failures: list[str] = field(default_factory=list)


def verify_monotone(tau) -> MonotoneReport:
    """Check tau, take `f_vector_normal_form` at every cut k = 0..len(tau),
    and audit that the f-vectors rise componentwise from cut to cut."""
    tau = check_tau(tau)
    fvs = {k: f_vector_normal_form(tau, k) for k in range(len(tau) + 1)}
    failures = []
    for k in range(len(tau)):
        for i, (lo, hi) in enumerate(zip(fvs[k], fvs[k + 1])):
            if lo > hi:
                failures.append(f"f_{i} drops from {lo} to {hi} between cuts {k} and {k + 1}")
    return MonotoneReport(tau, fvs, not failures, failures)
