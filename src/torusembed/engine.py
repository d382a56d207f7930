"""The decision pipeline for realizing a quadratic form as a trace form.

Given an etale algebra with involution ``E`` (rank 2n) and a rational
quadratic form ``q`` of dimension 2n, the pipeline decides whether ``q`` is
equivalent to some trace form of ``E`` by purely local bookkeeping:

1. ``check_local`` — discriminant equality, hyperbolicity at the places where
   every component splits, and a signature condition at the real place.
2. ``bad_places`` — the finite set of places where any local invariant of
   ``q``, of the hyperbolic form, or of the pairwise determinant pairing can
   be nontrivial.
3. ``construct_baseline`` — one deterministic choice of per-component local
   data over the bad places whose bit sums match ``q``'s local invariants.
4. ``build_graph`` — for each pair of components, a witness place where both
   are non-split; such a witness lets local data flow between the two
   components in pairs.  One walk over the places (infinity, then primes in
   increasing order) settles, at each place, every pending pair whose two
   components are both non-split there, so each witness is the pair's
   smallest.
5. ``decide`` — the parity criterion: the baseline can be corrected to an
   everywhere-consistent collection exactly when every connected component of
   the witness graph carries an even number of odd-parity vertices.

Non-realizability is always reported relative to the witness-search bound:
the absence of a witness below the bound does not prove that none exists.
Fully split/complex algebras ("cm") and algebras with a hub component
("star") admit fast paths where the local checks alone decide; the generic
criterion still runs as an internal audit whenever it is computable.
"""

from __future__ import annotations

from itertools import chain

from .arith.integers import iter_primes
from .arith.places import INFINITY, TWO, Place, sorted_places
from .errors import AuditError, NeedAnnotations, format_pairs
from .etale import INDETERMINATE, NONSPLIT, SPLIT, EtaleAlgebra
from .qform import (
    QuadraticSpace,
    hyperbolic_deviation_set,
    hyperbolic_hasse_support,
    signature_hasse_bit,
)
from .record import Record

VERDICT_LOCALLY_FAILS = "locally_fails"
VERDICT_REALIZABLE = "realizable"
VERDICT_NOT_REALIZABLE_UP_TO_BOUND = "not_realizable_up_to_bound"
VERDICT_INCONCLUSIVE = "inconclusive"

CONDITION_DISC = "disc"
CONDITION_HYPERBOLICITY = "hyperbolicity"
CONDITION_SIGNATURE = "signature"

DEFAULT_PRIME_BOUND = 1000

# Two quadratic components always share a non-split place (two nontrivial
# quadratic characters are simultaneously -1 on a positive density of
# primes), so their witness search may run past the user bound.  The cap
# exists only to turn an impossible exhaustion into a loud internal error.
_QUAD_PAIR_PRIME_CAP = 10**6


class LocalCheckResult(Record):
    """Outcome of the three local realizability conditions.

    ``hyperbolicity_ok`` is ``None`` when undetermined splitting statuses
    block the check; the (component, prime) pairs needing annotations are
    then listed in ``pending``.
    """

    def __init__(
        self,
        disc_ok: bool,
        hyperbolicity_ok: bool | None,
        signature_ok: bool,
        failing_place: Place | None,
        failing_condition: str | None,
        pending: tuple[tuple[int, int], ...],
    ) -> None:
        self.disc_ok = disc_ok
        self.hyperbolicity_ok = hyperbolicity_ok
        self.signature_ok = signature_ok
        self.failing_place = failing_place
        self.failing_condition = failing_condition
        self.pending = pending

    @property
    def passed(self) -> bool:
        return self.disc_ok and self.signature_ok and self.hyperbolicity_ok is True

    @property
    def failed(self) -> bool:
        return (
            not self.disc_ok
            or not self.signature_ok
            or self.hyperbolicity_ok is False
        )


def check_local(algebra: EtaleAlgebra, form: QuadraticSpace) -> LocalCheckResult:
    """Local realizability: disc equality, hyperbolicity at split places
    restricted to the finite deviation set, and the signature condition.  A
    place whose status row has no non-split entry leaves hyperbolicity
    pending on its indeterminate (component, prime) pairs.

    When several conditions fail, the reported certificate prefers the
    signature (place infinity), then hyperbolicity (smallest failing prime),
    then the discriminant (no single place).
    """
    if form.dim != algebra.rank:
        raise ValueError(
            f"form dimension {form.dim} does not match algebra rank {algebra.rank}"
        )
    inv = form.invariants
    disc_ok = inv.disc == algebra.disc_class

    pending: list[tuple[int, int]] = []
    hyper_failing: Place | None = None
    for v in sorted_places(hyperbolic_deviation_set(form)):
        if v.is_infinite:
            continue
        row = algebra.statuses(v)
        if NONSPLIT in row:
            continue
        if INDETERMINATE not in row:
            hyper_failing = v
            break
        pending.extend((i, v.p) for i, s in enumerate(row) if s is INDETERMINATE)
    if hyper_failing is not None:
        hyperbolicity_ok: bool | None = False
    elif pending:
        hyperbolicity_ok = None
    else:
        hyperbolicity_ok = True

    r, s = inv.signature
    rho = algebra.unramified_real_weight
    signature_ok = r >= rho and s >= rho and (r - rho) % 2 == 0

    failing_place: Place | None = None
    failing_condition: str | None = None
    if not signature_ok:
        failing_place, failing_condition = INFINITY, CONDITION_SIGNATURE
    elif hyperbolicity_ok is False:
        failing_place, failing_condition = hyper_failing, CONDITION_HYPERBOLICITY
    elif not disc_ok:
        failing_condition = CONDITION_DISC

    return LocalCheckResult(
        disc_ok=disc_ok,
        hyperbolicity_ok=hyperbolicity_ok,
        signature_ok=signature_ok,
        failing_place=failing_place,
        failing_condition=failing_condition,
        pending=tuple(sorted(set(pending))),
    )


def bad_places(algebra: EtaleAlgebra, form: QuadraticSpace) -> tuple[Place, ...]:
    """The finite place set outside which every local datum is forced: the
    form's hyperbolic deviation set, the support of the pairwise determinant
    pairing, and always 2 and infinity."""
    places = set(hyperbolic_deviation_set(form))
    places |= algebra.pairwise_det_support
    places.add(TWO)
    places.add(INFINITY)
    return tuple(sorted_places(places))


class BaselineCollection(Record):
    """One deterministic choice of per-component local data over the bad
    places.

    ``finite_bits`` pairs each finite bad place with the per-component Hasse
    bits; ``infinity_signatures`` assigns each component a signature.  The
    bit sums match the form's local invariants place by place (adjusted by
    the pairwise determinant pairing), and the signatures sum to the form's
    signature.
    """

    def __init__(
        self,
        finite_bits: tuple[tuple[Place, tuple[int, ...]], ...],
        infinity_signatures: tuple[tuple[int, int], ...],
    ) -> None:
        self.finite_bits = finite_bits
        self.infinity_signatures = infinity_signatures


def construct_baseline(
    algebra: EtaleAlgebra, form: QuadraticSpace, places: tuple[Place, ...]
) -> BaselineCollection:
    """Build the lexicographically minimal baseline collection over
    ``places``, which ``decide`` takes from ``bad_places(algebra, form)``.

    At each finite bad place the parity of the component bit-sum is pinned by
    the form's Hasse bit and the pairwise determinant bit, read off the
    form's Hasse support and the pairwise determinant support.  By the
    place's status row, a split component has the forced hyperbolic bit, a
    non-split one defaults to 0, and the last non-split one flips when the
    pinned parity demands it.  At infinity the positive ramified slots are
    distributed greedily left to right.

    Raises :class:`NeedAnnotations` with every indeterminate entry of the
    rows, and :class:`AuditError` on any infeasibility (which the prior local
    checks are supposed to exclude).
    """
    comps = algebra.components
    odd = form.invariants.hasse_support ^ algebra.pairwise_det_support
    pending: list[tuple[int, int]] = []
    finite_entries: list[tuple[Place, tuple[int, ...]]] = []
    for v in places:
        if v.is_infinite:
            continue
        row = algebra.statuses(v)
        if INDETERMINATE in row:
            pending.extend((i, v.p) for i, s in enumerate(row) if s is INDETERMINATE)
            continue
        bits = [
            int(s is SPLIT and v in hyperbolic_hasse_support(c.degree))
            for c, s in zip(comps, row)
        ]
        free = [i for i, s in enumerate(row) if s is NONSPLIT]
        if sum(bits) % 2 != (v in odd):
            if not free:
                raise AuditError(
                    f"no feasible local data at {v}: every bit is forced"
                )
            bits[free[-1]] = 1
        finite_entries.append((v, tuple(bits)))
    if pending:
        raise NeedAnnotations(pending)

    r, s = form.invariants.signature
    rho = algebra.unramified_real_weight
    if r < rho or (r - rho) % 2:
        raise AuditError("signature condition violated during baseline construction")
    remaining = (r - rho) // 2
    signatures: list[tuple[int, int]] = []
    for comp in comps:
        rp = min(comp.ramified_count, remaining)
        remaining -= rp
        sp = comp.ramified_count - rp
        w = comp.unramified_weight
        signatures.append((2 * rp + w, 2 * sp + w))
    if remaining:
        raise AuditError("ramified slots exhausted during signature distribution")
    total = (sum(a for a, _ in signatures), sum(b for _, b in signatures))
    if total != (r, s):
        raise AuditError("assigned signatures do not sum to the form's signature")

    return BaselineCollection(
        finite_bits=tuple(finite_entries),
        infinity_signatures=tuple(signatures),
    )


def parity_vector(baseline: BaselineCollection) -> tuple[int, ...]:
    """Per-component parity of the baseline: the number of bad places where
    the component's local datum has Hasse bit 1, mod 2.  The contribution at
    infinity is derived from the assigned signature."""
    n = len(baseline.infinity_signatures)
    parity = [0] * n
    for _, bits in baseline.finite_bits:
        for i, b in enumerate(bits):
            parity[i] ^= b
    for i, sig in enumerate(baseline.infinity_signatures):
        parity[i] ^= signature_hasse_bit(sig)
    return tuple(parity)


class WitnessGraph(Record):
    """Components as vertices; an edge carries a verified place where both
    endpoints are non-split.  Pairs with no witness up to the search bound
    are listed as unresolved."""

    def __init__(
        self,
        vertex_count: int,
        edges: tuple[tuple[int, int, Place], ...],
        unresolved: tuple[tuple[int, int], ...],
    ) -> None:
        self.vertex_count = vertex_count
        self.edges = edges
        self.unresolved = unresolved

    def connected_components(self) -> tuple[tuple[int, ...], ...]:
        parent = list(range(self.vertex_count))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j, _ in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        groups: dict[int, list[int]] = {}
        for i in range(self.vertex_count):
            groups.setdefault(find(i), []).append(i)
        return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))

    def star_vertex(self) -> int | None:
        """Smallest vertex with verified edges to every other vertex."""
        if self.vertex_count == 1:
            return 0
        present = {(i, j) for i, j, _ in self.edges}
        for i0 in range(self.vertex_count):
            if all(
                (min(i0, j), max(i0, j)) in present
                for j in range(self.vertex_count)
                if j != i0
            ):
                return i0
        return None


def build_graph(algebra: EtaleAlgebra, bound: int) -> WitnessGraph:
    """Find every component pair's witness in one walk over the places:
    infinity, then primes in increasing order.  At each place every pending
    pair whose components are both non-split there is settled.  Past the
    bound only pairs of rational quadratic components stay pending: they
    provably admit a witness, so their search runs on to a cap."""
    comps = algebra.components
    n = len(comps)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    witness: dict[tuple[int, int], Place] = {}
    pending = pairs
    cap = max(bound, _QUAD_PAIR_PRIME_CAP)
    # iter_primes has already tested each p, so Place(p) needs no check.
    for v in chain([INFINITY], map(Place, iter_primes())):
        if not v.is_infinite and v.p > bound:
            pending = [
                (i, j) for i, j in pending if comps[i].is_quad and comps[j].is_quad
            ]
            if pending and v.p > cap:
                i, j = pending[0]
                raise AuditError(
                    f"no shared non-split prime below {cap} for quadratic pair "
                    f"({i}, {j}); this contradicts character independence"
                )
        if not pending:
            break
        unsettled = []
        for i, j in pending:
            if (
                algebra.component_split(i, v) is NONSPLIT
                and algebra.component_split(j, v) is NONSPLIT
            ):
                witness[i, j] = v
            else:
                unsettled.append((i, j))
        pending = unsettled
    return WitnessGraph(
        vertex_count=n,
        edges=tuple((i, j, witness[i, j]) for i, j in pairs if (i, j) in witness),
        unresolved=tuple(pair for pair in pairs if pair not in witness),
    )


class DecisionReport(Record):
    """Full outcome of the decision pipeline."""

    def __init__(
        self,
        verdict: str,
        bound: int,
        local: LocalCheckResult,
        bad_places: tuple[Place, ...] | None = None,
        baseline: BaselineCollection | None = None,
        parity: tuple[int, ...] | None = None,
        graph: WitnessGraph | None = None,
        fast_path: str | None = None,
        star_vertex: int | None = None,
        needed_annotations: tuple[tuple[int, int], ...] = (),
        notes: tuple[str, ...] = (),
    ) -> None:
        self.verdict = verdict
        self.bound = bound
        self.local = local
        self.bad_places = bad_places
        self.baseline = baseline
        self.parity = parity
        self.graph = graph
        self.fast_path = fast_path
        self.star_vertex = star_vertex
        self.needed_annotations = needed_annotations
        self.notes = notes


def decide(
    algebra: EtaleAlgebra,
    form: QuadraticSpace,
    bound: int = DEFAULT_PRIME_BOUND,
) -> DecisionReport:
    """Decide realizability of ``form`` as a trace form of ``algebra``.

    Verdicts: ``locally_fails`` with a certificate when a local condition
    definitively fails; ``realizable`` when the parity criterion holds on
    every connected component of the witness graph (or a fast path applies);
    ``not_realizable_up_to_bound`` when the criterion fails but missing
    witnesses above the bound could still cure it; ``inconclusive`` when
    undetermined splitting statuses block a required check, listing the
    annotations that would resolve them.
    """
    if bound < 2:
        raise ValueError("witness search bound must be at least 2")
    local = check_local(algebra, form)
    if local.failed:
        return DecisionReport(VERDICT_LOCALLY_FAILS, bound, local)
    if not local.passed:
        return DecisionReport(
            VERDICT_INCONCLUSIVE,
            bound,
            local,
            needed_annotations=local.pending,
            notes=(
                "hyperbolicity check needs annotations: "
                + format_pairs(local.pending),
            ),
        )

    notes: list[str] = []
    if any(c.fixed_degree >= 2 for c in algebra.components):
        notes.append(
            "components with nonrational fixed fields present; unramified real "
            "embeddings are counted with degree weights"
        )
    weight = algebra.unramified_real_weight
    count = algebra.unramified_place_count
    if weight != count:
        notes.append(
            f"degree-weighted unramified real count ({weight}) differs from the "
            f"plain place count ({count}); the weighted count governs the "
            "signature condition"
        )

    places = bad_places(algebra, form)
    graph = build_graph(algebra, bound)
    fast: str | None = "cm" if algebra.is_cm else None
    star = graph.star_vertex()
    if fast is None and star is not None:
        fast = "star"

    baseline: BaselineCollection | None = None
    parity: tuple[int, ...] | None = None
    needed: tuple[tuple[int, int], ...] = ()
    try:
        baseline = construct_baseline(algebra, form, places)
        parity = parity_vector(baseline)
    except NeedAnnotations as exc:
        needed = exc.pending

    generic_verdict: str | None = None
    if parity is not None:
        if sum(parity) % 2:
            raise AuditError("total baseline parity must be even")
        if len(parity) == 1 and parity[0]:
            raise AuditError("a single-component baseline must have parity zero")
        criterion_ok = all(
            sum(parity[i] for i in group) % 2 == 0
            for group in graph.connected_components()
        )
        generic_verdict = (
            VERDICT_REALIZABLE if criterion_ok else VERDICT_NOT_REALIZABLE_UP_TO_BOUND
        )
    else:
        notes.append(
            "parity audit unavailable; splitting annotations needed: "
            + format_pairs(needed)
        )

    if fast is not None:
        verdict = VERDICT_REALIZABLE
        if generic_verdict is not None and generic_verdict != verdict:
            raise AuditError(
                f"fast path '{fast}' disagrees with the parity criterion"
            )
    elif generic_verdict is None:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = generic_verdict

    return DecisionReport(
        verdict=verdict,
        bound=bound,
        local=local,
        bad_places=places,
        baseline=baseline,
        parity=parity,
        graph=graph,
        fast_path=fast,
        star_vertex=star if fast == "star" else None,
        needed_annotations=needed,
        notes=tuple(notes),
    )
