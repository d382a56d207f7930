"""The decision pipeline for realizing a quadratic form as a trace form.

Given an etale algebra with involution ``E`` (rank 2n) and a rational
quadratic form ``q`` of dimension 2n, the pipeline decides whether ``q`` is
equivalent to some trace form of ``E`` by purely local bookkeeping:

1. ``check_local`` — discriminant equality, hyperbolicity at the places where
   the algebra splits, and a signature condition at the real place.
2. ``bad_places`` — the finite set of places where any local invariant of
   ``q``, of the hyperbolic form, or of the pairwise determinant pairing can
   be nontrivial.
3. ``construct_baseline`` — one deterministic choice of per-component local
   data over the bad places whose bit sums match ``q``'s local invariants.
4. ``build_graph`` — for each pair of components, a witness place where both
   are non-split; such a witness lets local data flow between the two
   components in pairs.
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

from dataclasses import dataclass

from .arith import iter_primes
from .arith.places import INFINITY, TWO, Place, sorted_places
from .errors import AuditError, NeedAnnotations, format_pairs
from .etale import EtaleAlgebra
from .qform import (
    QuadraticSpace,
    hyperbolic_deviation_set,
    hyperbolic_hasse_support,
    signature_hasse_bit,
)

__all__ = [
    "CONDITION_DISC",
    "CONDITION_HYPERBOLICITY",
    "CONDITION_SIGNATURE",
    "DEFAULT_PRIME_BOUND",
    "VERDICT_LOCALLY_FAILS",
    "VERDICT_REALIZABLE",
    "VERDICT_NOT_REALIZABLE_UP_TO_BOUND",
    "VERDICT_INCONCLUSIVE",
    "LocalCheckResult",
    "BaselineCollection",
    "WitnessGraph",
    "DecisionReport",
    "check_local",
    "bad_places",
    "achievable_bits",
    "achievable_signatures",
    "construct_baseline",
    "parity_vector",
    "build_graph",
    "decide",
]

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


@dataclass(frozen=True)
class LocalCheckResult:
    """Outcome of the three local realizability conditions.

    ``hyperbolicity_ok`` is ``None`` when undetermined splitting statuses
    block the check; the (component, prime) pairs needing annotations are
    then listed in ``pending``.
    """

    disc_ok: bool
    hyperbolicity_ok: bool | None
    signature_ok: bool
    failing_place: Place | None
    failing_condition: str | None
    pending: tuple[tuple[int, int], ...]

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
    restricted to the finite deviation set, and the signature condition.

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
        status = algebra.split_at(v)
        if status.is_split:
            hyper_failing = v
            break
        if status.is_indeterminate:
            pending.extend(algebra.indeterminate_pairs_at(v))
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
    places |= set(algebra.pairwise_det_support())
    places.add(TWO)
    places.add(INFINITY)
    return tuple(sorted_places(places))


def achievable_bits(algebra: EtaleAlgebra, i: int, v: Place) -> frozenset[int] | None:
    """Local Hasse bits achievable by component ``i`` at a finite place.

    A split component only carries the hyperbolic form of its dimension, so
    its bit is forced; a non-split component achieves both bits; an
    undetermined status abstains (``None``).
    """
    if v.is_infinite:
        raise ValueError("finite place required; use achievable_signatures at infinity")
    status = algebra.component_split(i, v)
    if status.is_indeterminate:
        return None
    if status.is_split:
        dim = algebra.components[i].degree
        return frozenset({int(v in hyperbolic_hasse_support(dim))})
    return frozenset({0, 1})


def achievable_signatures(algebra: EtaleAlgebra, i: int) -> tuple[tuple[int, int], ...]:
    """Signatures achievable by component ``i`` at the real place: each
    ramified real embedding contributes a definite plane of either sign, and
    the unramified weight pads both sides."""
    comp = algebra.components[i]
    w = comp.unramified_weight
    ram = comp.ramified_count
    return tuple((2 * rp + w, 2 * (ram - rp) + w) for rp in range(ram + 1))


@dataclass(frozen=True)
class BaselineCollection:
    """One deterministic choice of per-component local data over the bad
    places.

    ``finite_bits`` pairs each finite bad place with the per-component Hasse
    bits; ``infinity_signatures`` assigns each component a signature.  The
    bit sums match the form's local invariants place by place (adjusted by
    the pairwise determinant pairing), and the signatures sum to the form's
    signature.
    """

    places: tuple[Place, ...]
    finite_bits: tuple[tuple[Place, tuple[int, ...]], ...]
    infinity_signatures: tuple[tuple[int, int], ...]


def construct_baseline(
    algebra: EtaleAlgebra, form: QuadraticSpace
) -> BaselineCollection:
    """Build the lexicographically minimal baseline collection.

    At each finite bad place the parity of the component bit-sum is pinned by
    the form's Hasse bit and the pairwise determinant bit; split components
    have forced bits, the rest default to 0, and the last free component
    flips when the pinned parity demands it.  At infinity the positive
    ramified slots are distributed greedily left to right.

    Raises :class:`NeedAnnotations` when undetermined splitting statuses
    block some place, and :class:`AuditError` on any infeasibility (which the
    prior local checks are supposed to exclude).
    """
    places = bad_places(algebra, form)
    comps = algebra.components
    pending: list[tuple[int, int]] = []
    finite_entries: list[tuple[Place, tuple[int, ...]]] = []
    for v in places:
        if v.is_infinite:
            continue
        bits: list[int] = []
        free: list[int] = []
        blocked = False
        for i in range(len(comps)):
            achievable = achievable_bits(algebra, i, v)
            if achievable is None:
                pending.extend(algebra.indeterminate_pairs_at(v))
                blocked = True
                break
            if len(achievable) == 1:
                bits.append(next(iter(achievable)))
            else:
                bits.append(0)
                free.append(i)
        if blocked:
            continue
        target = (form.local_hasse_bit(v) + algebra.pairwise_det_bit(v)) % 2
        if sum(bits) % 2 != target:
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
        places=places,
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


@dataclass(frozen=True)
class WitnessGraph:
    """Components as vertices; an edge carries a verified place where both
    endpoints are non-split.  Pairs with no witness up to the search bound
    are listed as unresolved."""

    vertex_count: int
    edges: tuple[tuple[int, int, Place], ...]
    unresolved: tuple[tuple[int, int], ...]

    def witness(self, i: int, j: int) -> Place | None:
        a, b = min(i, j), max(i, j)
        for x, y, v in self.edges:
            if (x, y) == (a, b):
                return v
        return None

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


def _find_witness(
    algebra: EtaleAlgebra, i: int, j: int, bound: int
) -> Place | None:
    """First place (infinity, then primes ascending) where both components
    are verified non-split.  Pairs of rational quadratic components provably
    admit a witness, so their search continues past the bound."""
    if (
        algebra.component_split(i, INFINITY).is_nonsplit
        and algebra.component_split(j, INFINITY).is_nonsplit
    ):
        return INFINITY
    exact_pair = algebra.components[i].is_quad and algebra.components[j].is_quad
    cap = max(bound, _QUAD_PAIR_PRIME_CAP) if exact_pair else bound
    for p in iter_primes():
        if p > cap:
            if exact_pair:
                raise AuditError(
                    f"no shared non-split prime below {cap} for quadratic pair "
                    f"({i}, {j}); this contradicts character independence"
                )
            return None
        v = Place.finite(p)
        if (
            algebra.component_split(i, v).is_nonsplit
            and algebra.component_split(j, v).is_nonsplit
        ):
            return v
    raise AssertionError("unreachable: prime stream is infinite")


def build_graph(algebra: EtaleAlgebra, bound: int) -> WitnessGraph:
    """Search a witness for every component pair: infinity first, then
    primes in increasing order up to the bound."""
    n = len(algebra.components)
    edges: list[tuple[int, int, Place]] = []
    unresolved: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            w = _find_witness(algebra, i, j, bound)
            if w is None:
                unresolved.append((i, j))
            else:
                edges.append((i, j, w))
    return WitnessGraph(
        vertex_count=n, edges=tuple(edges), unresolved=tuple(unresolved)
    )


@dataclass(frozen=True)
class DecisionReport:
    """Full outcome of the decision pipeline."""

    verdict: str
    bound: int
    local: LocalCheckResult
    bad_places: tuple[Place, ...] | None
    baseline: BaselineCollection | None
    parity: tuple[int, ...] | None
    graph: WitnessGraph | None
    fast_path: str | None
    star_vertex: int | None
    needed_annotations: tuple[tuple[int, int], ...]
    notes: tuple[str, ...]


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
        return DecisionReport(
            verdict=VERDICT_LOCALLY_FAILS,
            bound=bound,
            local=local,
            bad_places=None,
            baseline=None,
            parity=None,
            graph=None,
            fast_path=None,
            star_vertex=None,
            needed_annotations=(),
            notes=(),
        )
    if not local.passed:
        return DecisionReport(
            verdict=VERDICT_INCONCLUSIVE,
            bound=bound,
            local=local,
            bad_places=None,
            baseline=None,
            parity=None,
            graph=None,
            fast_path=None,
            star_vertex=None,
            needed_annotations=local.pending,
            notes=(
                "hyperbolicity check needs annotations: "
                + format_pairs(local.pending),
            ),
        )

    notes: list[str] = []
    if algebra.has_nonrational_fixed_field:
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
        baseline = construct_baseline(algebra, form)
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
        edge_endpoints = {i for i, _, _ in graph.edges} | {
            j for _, j, _ in graph.edges
        }
        literal_ok = all(
            parity[i] == 0 or i in edge_endpoints for i in range(len(parity))
        )
        if literal_ok != criterion_ok:
            notes.append(
                "the chain-based connectedness reading disagrees with the "
                "parity-sum criterion on this instance; the parity-sum "
                "criterion decides"
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
