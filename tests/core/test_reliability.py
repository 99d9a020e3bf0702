"""Property and differential tests for survivability-aware placement (RVMP).

Four pillars, per the issue's acceptance criteria:

* **Spread algebra** — the budget/quorum arithmetic guarantees that any
  ``k`` domain failures leave a quorum, and the survival DP matches exact
  subset enumeration.
* **Bit-identity** — ``k = 0`` (and any vacuous target) routes through the
  unconstrained code path: placements are *bit-identical* to target-free
  ones, for both the heuristic and the exact solver.
* **Cap enforcement** — whenever the heuristic places a constrained
  request, every failure domain holds at most the compiled cap.
* **Refusal iff infeasible** — the heuristic and the exact solver refuse a
  target exactly when the cap-extended MILP is infeasible against maximum
  pool capacity (cross-checked against brute-force assignment search on
  small instances).
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import PoolSpec, VMTypeCatalog, random_pool
from repro.core import reliability as rel
from repro.core.placement.exact import solve_sd_exact
from repro.core.placement.greedy import OnlineHeuristic
from repro.core.problem import VirtualClusterRequest
from repro.util.errors import InfeasibleRequestError, ValidationError

CATALOG = VMTypeCatalog.ec2_default()


def make_pool(seed, racks=3, nodes_per_rack=3, capacity_high=2):
    return random_pool(
        PoolSpec(
            racks=racks,
            nodes_per_rack=nodes_per_rack,
            capacity_low=0,
            capacity_high=capacity_high,
        ),
        CATALOG,
        seed=seed,
    )


def rack_counts(matrix, rack_ids):
    per_node = matrix.sum(axis=1)
    counts = np.zeros(int(rack_ids.max()) + 1, dtype=np.int64)
    np.add.at(counts, rack_ids, per_node)
    return counts


class TestSpreadAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(total=st.integers(1, 60), k=st.integers(0, 10))
    def test_any_k_failures_leave_a_quorum(self, total, k):
        cap = rel.spread_budget(total, k)
        q = rel.quorum(total, k)
        assert (cap == 0) == (total <= k)
        if cap == 0:
            return
        # Adversary kills the k fullest domains of any cap-respecting
        # spread; at most k * cap VMs die, and a quorum must remain.
        assert total - k * cap >= q >= 1
        # The nominal spread respects its own cap and sums to the total.
        counts = rel.nominal_domain_counts(total, cap)
        assert max(counts) <= cap and sum(counts) == total

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        u=st.floats(0.0, 1.0),
        max_loss=st.integers(0, 8),
    )
    def test_survival_dp_matches_subset_enumeration(self, counts, u, max_loss):
        exact = 0.0
        for downs in itertools.product([0, 1], repeat=len(counts)):
            lost = sum(c for c, d in zip(counts, downs) if d)
            if lost <= max_loss:
                p = 1.0
                for d in downs:
                    p *= u if d else (1.0 - u)
                exact += p
        assert rel.survival_probability(counts, u, max_loss) == pytest.approx(
            exact, abs=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(
        total=st.integers(1, 12),
        num_domains=st.integers(1, 8),
        target=st.floats(0.5, 0.999999),
    )
    def test_resolved_k_is_minimal_and_sufficient(
        self, total, num_domains, target
    ):
        # Internal consistency of the *estimator* only: the nominal spread
        # is not the worst cap-respecting shape (see
        # TestAvailabilityVerifiedCommit), so no commit path relies on it.
        u = 0.05
        k = rel.resolve_availability_k(target, total, num_domains, u)
        if k is None:
            return
        assert rel.nominal_availability(total, k, u) >= target
        if k > 0:
            assert rel.nominal_availability(total, k - 1, u) < target
        # The resolved spread must actually fit in the domain count.
        assert rel.spread_budget(total, k) * num_domains >= total


class TestTargetSerialization:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["node", "rack"]),
        k=st.integers(0, 6),
        model=st.booleans(),
    )
    def test_k_target_round_trips(self, kind, k, model):
        target = rel.SurvivabilityTarget(
            kind=kind,
            k=k,
            mtbf=900.0 if model else None,
            mttr=100.0 if model else None,
        )
        assert rel.SurvivabilityTarget.from_dict(target.to_dict()) == target

    @settings(max_examples=40, deadline=None)
    @given(
        scope=st.sampled_from(["node", "rack"]),
        avail=st.floats(0.5, 0.9999),
    )
    def test_availability_target_round_trips(self, scope, avail):
        target = rel.SurvivabilityTarget(
            kind="availability",
            min_availability=avail,
            scope=scope,
            mtbf=1500.0,
            mttr=40.0,
        )
        assert rel.SurvivabilityTarget.from_dict(target.to_dict()) == target

    def test_invalid_targets_are_rejected(self):
        with pytest.raises(ValidationError):
            rel.SurvivabilityTarget(kind="datacenter")
        with pytest.raises(ValidationError):
            rel.SurvivabilityTarget(kind="rack", k=-1)
        with pytest.raises(ValidationError):
            rel.SurvivabilityTarget(kind="rack", k=1, mtbf=100.0)  # no mttr
        with pytest.raises(ValidationError):
            rel.SurvivabilityTarget(kind="availability", min_availability=0.9)
        with pytest.raises(ValidationError):
            rel.SurvivabilityTarget(
                kind="availability",
                min_availability=1.5,
                mtbf=100.0,
                mttr=10.0,
            )
        with pytest.raises(ValidationError):
            rel.SurvivabilityTarget.from_dict({"kind": "rack", "nodes": 3})


class TestSpreadFeasibility:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cap=st.integers(1, 3),
    )
    def test_flow_feasibility_matches_bruteforce(self, seed, cap):
        rng = np.random.default_rng(seed)
        n, m = 4, 2
        capacity = rng.integers(0, 3, size=(n, m))
        domain_ids = rng.integers(0, 3, size=n)
        demand = rng.integers(0, 3, size=m)
        if demand.sum() == 0:
            return
        flow = rel.spread_feasible(demand, capacity, domain_ids, int(cap))
        assert flow == self._bruteforce(demand, capacity, domain_ids, int(cap))

    @staticmethod
    def _bruteforce(demand, capacity, domain_ids, cap):
        """Exhaustive assignment search over per-node, per-type counts."""
        n, m = capacity.shape
        ranges = [
            range(int(min(capacity[i, j], demand[j])) + 1)
            for i in range(n)
            for j in range(m)
        ]
        for flat in itertools.product(*ranges):
            x = np.asarray(flat, dtype=np.int64).reshape(n, m)
            if np.any(x.sum(axis=0) != demand):
                continue
            per_domain = np.zeros(int(domain_ids.max()) + 1, dtype=np.int64)
            np.add.at(per_domain, domain_ids, x.sum(axis=1))
            if per_domain.max() <= cap:
                return True
        return False


class TestHeuristicSpread:
    """The generalized ``max_vms_per_rack`` budgeting path."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(0, 4),
        demand=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    def test_cap_enforced_and_refusal_iff_infeasible(self, seed, k, demand):
        demand = np.asarray(demand, dtype=np.int64)
        if demand.sum() == 0:
            return
        pool = make_pool(seed)
        target = rel.SurvivabilityTarget(kind="rack", k=k)
        request = VirtualClusterRequest(demand=demand, survivability=target)
        heuristic = OnlineHeuristic()
        total = int(demand.sum())
        cap = rel.spread_budget(total, k)
        try:
            result = heuristic.place(pool, request)
        except InfeasibleRequestError:
            # Refuse exactly iff the cap-extended program is infeasible
            # against maximum capacity (cap 0 is the degenerate case).
            assert cap == 0 or not rel.spread_feasible(
                demand, pool.max_capacity, pool.topology.rack_ids, cap
            )
            return
        assert cap > 0
        if result.allocation is None:
            # The admission flow certified a feasible assignment exists,
            # but the greedy per-center fill is incomplete under a binding
            # cap (it can strand capacity the coupled MILP would use) —
            # waiting is legal there. Without a binding cap a fresh pool
            # must always place.
            assert cap < total
            assert rel.spread_feasible(
                demand, pool.max_capacity, pool.topology.rack_ids, cap
            )
            return
        counts = rack_counts(result.allocation.matrix, pool.topology.rack_ids)
        assert result.allocation.matrix.sum() == total
        if cap < total:
            assert counts.max() <= cap

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        demand=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    # make_pool(285) has maximum capacity [7, 2, 14]: both paths must refuse.
    @example(seed=285, demand=[0, 3, 0])
    def test_k0_bit_identical_to_unconstrained(self, seed, demand):
        demand = np.asarray(demand, dtype=np.int64)
        if demand.sum() == 0:
            return
        pool = make_pool(seed)
        target = rel.SurvivabilityTarget(
            kind="rack", k=0, mtbf=900.0, mttr=100.0
        )
        heuristic = OnlineHeuristic()

        def outcome(request):
            try:
                return heuristic.place(pool, request).allocation
            except InfeasibleRequestError as refusal:
                return type(refusal)

        plain = outcome(VirtualClusterRequest(demand=demand))
        targeted = outcome(
            VirtualClusterRequest(demand=demand, survivability=target)
        )
        if isinstance(plain, type) or isinstance(targeted, type):
            assert plain is targeted  # both refuse, with the same error type
            return
        if plain is None:
            assert targeted is None
            return
        assert np.array_equal(plain.matrix, targeted.matrix)
        assert plain.center == targeted.center
        assert plain.distance == targeted.distance

    def test_node_scope_caps_every_node(self):
        pool = make_pool(3, capacity_high=3)
        demand = np.array([2, 2, 2])
        target = rel.SurvivabilityTarget(kind="node", k=2)
        result = OnlineHeuristic().place(
            pool, VirtualClusterRequest(demand=demand, survivability=target)
        )
        assert result.allocation is not None
        per_node = result.allocation.matrix.sum(axis=1)
        assert per_node.max() <= rel.spread_budget(6, 2)

    def test_operator_cap_combines_with_rack_target(self):
        pool = make_pool(5, capacity_high=3)
        demand = np.array([2, 2, 2])
        tight = OnlineHeuristic(max_vms_per_rack=2).place(
            pool,
            VirtualClusterRequest(
                demand=demand,
                survivability=rel.SurvivabilityTarget(kind="rack", k=1),
            ),
        )
        if tight.allocation is not None:
            counts = rack_counts(tight.allocation.matrix, pool.topology.rack_ids)
            assert counts.max() <= 2  # min(operator 2, target cap 3)

    def test_operator_cap_rejects_node_scope_target(self):
        pool = make_pool(5)
        request = VirtualClusterRequest(
            demand=np.array([1, 1, 0]),
            survivability=rel.SurvivabilityTarget(kind="node", k=1),
        )
        with pytest.raises(ValidationError):
            OnlineHeuristic(max_vms_per_rack=2).place(pool, request)

    def test_spread_refusal_fires_even_when_capacity_says_wait(self):
        # An impossible spread must refuse, not wait: with free capacity
        # drained, the plain admission check says "wait" — the structural
        # refusal (2 racks can never satisfy a k=2 rack tolerance for this
        # demand) must still surface instead of being short-circuited.
        pool = random_pool(
            PoolSpec(
                racks=2, nodes_per_rack=2, capacity_low=1, capacity_high=2
            ),
            CATALOG,
            seed=3,
        )
        demand = np.array([2, 2, 2])
        pool.allocate(np.minimum(pool.remaining, 1))
        assert not pool.can_satisfy(demand)
        assert not pool.exceeds_max_capacity(demand)
        request = VirtualClusterRequest(
            demand=demand,
            survivability=rel.SurvivabilityTarget(kind="rack", k=2),
        )
        with pytest.raises(InfeasibleRequestError):
            OnlineHeuristic().place(pool, request)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        demand=st.lists(st.integers(0, 3), min_size=3, max_size=3),
        op_cap=st.integers(1, 4),
        drain=st.booleans(),
    )
    def test_vacuous_target_with_operator_cap_matches_target_free(
        self, seed, demand, op_cap, drain
    ):
        # Observably identical constraints must admit identically: a no-op
        # (k=0) target riding along with max_vms_per_rack must not add an
        # admission check that target-free requests with the same operator
        # cap skip.
        demand = np.asarray(demand, dtype=np.int64)
        if demand.sum() == 0:
            return
        target = rel.SurvivabilityTarget(kind="rack", k=0)

        def outcome(with_target):
            pool = make_pool(seed)
            if drain:
                pool.allocate(np.minimum(pool.remaining, 1))
            heuristic = OnlineHeuristic(max_vms_per_rack=op_cap)
            request = VirtualClusterRequest(
                demand=demand,
                survivability=target if with_target else None,
            )
            try:
                return heuristic.place(pool, request).allocation
            except InfeasibleRequestError:
                return "refused"

        plain, targeted = outcome(False), outcome(True)
        if isinstance(plain, str) or plain is None:
            assert targeted == plain
        else:
            assert not isinstance(targeted, str) and targeted is not None
            assert np.array_equal(plain.matrix, targeted.matrix)
            assert plain.center == targeted.center
            assert plain.distance == targeted.distance


class TestExactReliable:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        k=st.integers(0, 3),
        demand=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    )
    def test_exact_respects_cap_and_never_loses_to_heuristic(
        self, seed, k, demand
    ):
        demand = np.asarray(demand, dtype=np.int64)
        if demand.sum() == 0:
            return
        pool = make_pool(seed, racks=3, nodes_per_rack=2)
        target = rel.SurvivabilityTarget(kind="rack", k=k)
        request = VirtualClusterRequest(demand=demand, survivability=target)
        total = int(demand.sum())
        cap = rel.spread_budget(total, k)
        try:
            exact = rel.solve_sd_reliable(request, pool, target)
        except InfeasibleRequestError:
            with pytest.raises(InfeasibleRequestError):
                OnlineHeuristic().place(pool, request)
            return
        assert exact is not None  # fresh pool: refuse or place
        counts = rack_counts(exact.matrix, pool.topology.rack_ids)
        if 0 < cap < total:
            assert counts.max() <= cap
        heuristic = OnlineHeuristic().place(pool, request)
        if heuristic.allocation is None:
            # Incomplete greedy fill under a binding cap (see
            # TestHeuristicSpread) — the exact solver placing while the
            # heuristic waits is the expected one-sided outcome.
            assert 0 < cap < total
            return
        # The exact-vs-heuristic optimality gap is one-sided.
        assert exact.distance <= heuristic.allocation.distance + 1e-9

    def test_k0_exact_bit_identical_to_solve_sd_exact(self):
        for seed in (1, 7, 42):
            pool = make_pool(seed)
            demand = np.array([2, 1, 1])
            target = rel.SurvivabilityTarget(kind="rack", k=0)
            request = VirtualClusterRequest(
                demand=demand, survivability=target
            )
            plain = solve_sd_exact(demand, pool)
            reliable = rel.solve_sd_reliable(request, pool, target)
            assert (plain is None) == (reliable is None)
            if plain is not None:
                assert np.array_equal(plain.matrix, reliable.matrix)
                assert plain.center == reliable.center
                assert plain.distance == reliable.distance

    def test_impossible_target_is_refused_up_front(self):
        pool = make_pool(11)
        demand = np.array([1, 1, 0])  # 2 VMs cannot survive k=2 failures
        target = rel.SurvivabilityTarget(kind="rack", k=2)
        request = VirtualClusterRequest(demand=demand, survivability=target)
        with pytest.raises(InfeasibleRequestError):
            rel.solve_sd_reliable(request, pool, target)
        with pytest.raises(InfeasibleRequestError):
            OnlineHeuristic().place(pool, request)
        assert rel.refusal_reason(demand, pool, target) is not None


class TestAvailabilityVerifiedCommit:
    """Availability targets are verified against the committed placement.

    Regression suite for the unsound compile-time promise: the nominal
    (fewest-domains) spread is *not* the worst cap-respecting shape, and a
    ``min_availability ≤ 1 − u`` target used to compile away entirely, so
    an admitted placement could silently violate its promise. The commit
    paths now accept a placement iff its own exact quorum survival meets
    the target (``verified_k`` / ``place_available``).
    """

    @staticmethod
    def availability_target(min_availability, u):
        return rel.SurvivabilityTarget(
            kind="availability",
            min_availability=min_availability,
            scope="rack",
            mtbf=1000.0 * (1.0 - u),
            mttr=1000.0 * u,
        )

    def test_nominal_spread_is_not_worst_case(self):
        # The counterexample that sank the compile-time promise: for
        # total=4, k=1 (two tolerated losses), the nominal [2, 2] survives
        # more often than the equally cap-respecting [2, 1, 1].
        nominal = rel.survival_probability([2, 2], 0.05, 2)
        finer = rel.survival_probability([2, 1, 1], 0.05, 2)
        assert rel.nominal_domain_counts(4, 2) == [2, 2]
        assert finer < nominal
        assert nominal == pytest.approx(0.9975)
        assert finer == pytest.approx(0.995125)

    def test_verified_k_is_smallest_sound_tolerance(self):
        target = self.availability_target(0.99, 0.05)
        # [2, 2] at k=0 survives (1-u)^2 = 0.9025 < 0.99; at k=1, 0.9975.
        assert rel.verified_k([2, 2], 4, target) == 1
        # [2, 1, 1] at k=1 survives 0.995125 >= 0.99 — but a 0.996 target
        # is met by [2, 2] and by no tolerance of [2, 1, 1].
        tight = self.availability_target(0.996, 0.05)
        assert rel.verified_k([2, 2], 4, tight) == 1
        assert rel.verified_k([2, 1, 1], 4, tight) is None

    def test_max_feasible_availability_bounds_every_spread(self):
        # All used domains down kills the quorum, so 1 - u^domains bounds
        # any placement's survival from above.
        assert rel.max_feasible_availability(3, 10, 0.1) == pytest.approx(
            1.0 - 0.1**3
        )
        assert rel.max_feasible_availability(8, 2, 0.1) == pytest.approx(
            1.0 - 0.1**2  # a 2-VM cluster uses at most 2 domains
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        min_availability=st.floats(0.6, 0.9999),
        u=st.floats(0.01, 0.2),
        demand=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    def test_committed_placements_meet_the_promise(
        self, seed, min_availability, u, demand
    ):
        demand = np.asarray(demand, dtype=np.int64)
        if demand.sum() == 0:
            return
        pool = make_pool(seed)
        target = self.availability_target(min_availability, u)
        request = VirtualClusterRequest(demand=demand, survivability=target)
        try:
            result = OnlineHeuristic().place(pool, request)
        except InfeasibleRequestError:
            return
        if result.allocation is None:
            return
        report = rel.achieved_survivability(
            result.allocation.matrix, pool, target
        )
        assert report["meets_target"]
        assert report["promised_availability"] >= min_availability
        # The reported tolerance is structurally respected too.
        total = int(demand.sum())
        counts = rack_counts(
            result.allocation.matrix, pool.topology.rack_ids
        )
        assert counts.max() <= rel.spread_budget(total, report["k"])

    def test_low_target_no_longer_compiles_away(self):
        # The k=0 hole: min_availability <= 1 - u used to resolve to k=0
        # and compile to no constraint at all, while the unconstrained
        # placement spread over d racks survives only (1-u)^d < target.
        pool = random_pool(
            PoolSpec(
                racks=6, nodes_per_rack=2, capacity_low=1, capacity_high=1
            ),
            CATALOG,
            seed=9,
        )
        demand = np.array([4, 4, 4])
        u = 0.04
        target = self.availability_target(0.96, u)  # 0.96 == 1 - u exactly
        plain = OnlineHeuristic().place(
            pool, VirtualClusterRequest(demand=demand)
        ).allocation
        plain_counts = rel.placement_domain_counts(
            plain.matrix, pool.topology.rack_ids
        )
        assert plain_counts.shape[0] > 1  # the request cannot fit one rack
        assert (
            rel.survival_probability(plain_counts, u, 0) < 0.96
        )  # the old vacuous path would have committed this violation
        for place in (
            lambda: OnlineHeuristic()
            .place(
                pool,
                VirtualClusterRequest(demand=demand, survivability=target),
            )
            .allocation,
            lambda: rel.solve_sd_reliable(
                VirtualClusterRequest(demand=demand, survivability=target),
                pool,
                target,
            ),
        ):
            allocation = place()
            assert allocation is not None
            report = rel.achieved_survivability(
                allocation.matrix, pool, target
            )
            assert report["meets_target"]
            assert report["promised_availability"] >= 0.96

    def test_unreachable_target_is_refused_up_front(self):
        pool = make_pool(11)
        demand = np.array([2, 2, 0])
        u = 0.5
        num_racks = int(np.unique(pool.topology.rack_ids).shape[0])
        impossible = min(
            0.999999,
            rel.max_feasible_availability(num_racks, 4, u) + 1e-6,
        )
        target = self.availability_target(impossible, u)
        assert rel.refusal_reason(demand, pool, target) is not None
        request = VirtualClusterRequest(demand=demand, survivability=target)
        with pytest.raises(InfeasibleRequestError):
            OnlineHeuristic().place(pool, request)
        with pytest.raises(InfeasibleRequestError):
            rel.solve_sd_reliable(request, pool, target)

    def test_compile_time_k_is_rejected_for_availability(self):
        # No placement-independent k exists; misuse must fail loudly
        # instead of producing an unsound cap.
        target = self.availability_target(0.99, 0.05)
        with pytest.raises(ValidationError):
            target.resolve_k(8, 4)
        pool = make_pool(3)
        with pytest.raises(ValidationError):
            rel.compile_target(np.array([2, 1, 0]), pool, target)


class TestAchievedSurvivability:
    def test_report_reflects_actual_spread(self):
        pool = make_pool(2, capacity_high=3)
        demand = np.array([3, 2, 2])
        target = rel.SurvivabilityTarget(
            kind="rack", k=1, mtbf=900.0, mttr=100.0
        )
        request = VirtualClusterRequest(demand=demand, survivability=target)
        result = OnlineHeuristic().place(pool, request)
        assert result.allocation is not None
        report = rel.achieved_survivability(
            result.allocation.matrix, pool, target
        )
        counts = rack_counts(result.allocation.matrix, pool.topology.rack_ids)
        used = counts[counts > 0]
        assert report["k"] == 1
        assert report["domains_used"] == used.shape[0]
        assert report["max_domain_vms"] == used.max()
        assert report["quorum"] == rel.quorum(7, 1)
        # The report's promise is the exact survival of *this* placement —
        # never a spread-shape estimate (the nominal shape is not a bound).
        assert report["promised_availability"] == pytest.approx(
            rel.survival_probability(
                used.tolist(), target.unavailability, 7 - rel.quorum(7, 1)
            )
        )
