"""Integer-programming solvers for the SD and GSD problems.

These encode the paper's Section III formulations literally and solve them
with ``scipy.optimize.milp`` (HiGHS branch-and-cut). The paper leaves the
central node ``k`` as "an integer variable"; a linear encoding needs the
center *choice* made explicit, so we introduce one binary ``y_k`` per
candidate center (``Σ_k y_k = 1``) and per-node cost variables ``w_i``
coupled through big-M constraints:

    w_i ≥ Σ_j x_ij · D_ik − M_i · (1 − y_k)      for all i, k

with ``M_i`` an upper bound on node ``i``'s possible cost contribution.
Minimizing ``Σ_i w_i`` then equals ``DC(C)`` for the selected center.

The GSD encoding (Definition 4) repeats this per request ``r`` and couples
the requests through shared capacity ``Σ_r x^r_ij ≤ L_ij``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.resources import ResourcePool
from repro.core.placement.base import (
    PlacementAlgorithm,
    check_admissible,
    normalize_request,
)
from repro.core.problem import Allocation, VirtualClusterRequest
from repro.util.errors import SolverError


@dataclass(frozen=True, slots=True)
class MilpOptions:
    """Solver knobs forwarded to HiGHS."""

    time_limit: float | None = None
    mip_rel_gap: float = 0.0

    def as_dict(self) -> dict:
        """Options dict in the form scipy.optimize.milp expects."""
        opts: dict = {"mip_rel_gap": self.mip_rel_gap}
        if self.time_limit is not None:
            opts["time_limit"] = self.time_limit
        return opts


def _round_int(values: np.ndarray) -> np.ndarray:
    """HiGHS returns floats; snap near-integers to exact int64."""
    rounded = np.round(values)
    if not np.allclose(values, rounded, atol=1e-6):
        raise SolverError(f"MILP returned non-integer solution: {values}")
    return rounded.astype(np.int64)


def solve_sd_milp(
    request: "VirtualClusterRequest | np.ndarray",
    pool: ResourcePool,
    *,
    options: MilpOptions | None = None,
    domain_ids: "np.ndarray | None" = None,
    domain_cap: "int | None" = None,
) -> "Allocation | None":
    """Solve the SD integer program (Section III.B) with HiGHS.

    Variable layout: ``x`` (n·m placement integers), ``y`` (n center
    binaries), ``w`` (n continuous per-node costs). Returns the optimal
    allocation, ``None`` when the request must wait, and raises
    :class:`~repro.util.errors.InfeasibleRequestError` when it must be
    refused.

    ``domain_ids``/``domain_cap`` (given together) add the RVMP
    failure-domain spread rows ``Σ_{i∈d,j} x_ij ≤ domain_cap`` per failure
    domain ``d`` — see :mod:`repro.core.reliability`. Callers are expected
    to have established feasibility (e.g. via
    :func:`repro.core.reliability.spread_feasible`); an infeasible program
    surfaces as :class:`~repro.util.errors.SolverError`.
    """
    # scipy is imported where it is used: nothing on a serving path solves a
    # MILP, and the import is ~half of ``import repro.service``.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    demand = normalize_request(request, pool.num_types)
    if (domain_ids is None) != (domain_cap is None):
        raise SolverError("domain_ids and domain_cap must be given together")
    if not check_admissible(demand, pool):
        return None
    options = options or MilpOptions()

    remaining = pool.remaining
    dist = pool.distance_matrix
    n, m = remaining.shape
    nx = n * m

    x_ub = np.minimum(remaining, demand[None, :]).reshape(-1).astype(np.float64)
    # M_i: node i's worst-case cost = farthest center × most VMs it may host.
    node_ub = np.minimum(remaining, demand[None, :]).sum(axis=1).astype(np.float64)
    big_m = dist.max(axis=1) * node_ub  # length n

    lb = np.zeros(nx + 2 * n)
    ub = np.concatenate([x_ub, np.ones(n), big_m])
    integrality = np.concatenate([np.ones(nx), np.ones(n), np.zeros(n)])
    c = np.concatenate([np.zeros(nx), np.zeros(n), np.ones(n)])

    constraints = []

    # Σ_i x_ij = R_j (demand exactly met).
    rows, cols = [], []
    for j in range(m):
        for i in range(n):
            rows.append(j)
            cols.append(i * m + j)
    a_dem = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(m, nx + 2 * n)
    )
    constraints.append(LinearConstraint(a_dem, demand.astype(float), demand.astype(float)))

    # Exactly one center.
    a_ctr = sparse.csr_matrix(
        (np.ones(n), (np.zeros(n, dtype=int), nx + np.arange(n))),
        shape=(1, nx + 2 * n),
    )
    constraints.append(LinearConstraint(a_ctr, 1.0, 1.0))

    # Big-M cost coupling: Σ_j D_ik·x_ij + M_i·y_k − w_i ≤ M_i  ∀ i, k.
    data, rows, cols = [], [], []
    row = 0
    rhs = []
    for i in range(n):
        for k in range(n):
            for j in range(m):
                data.append(dist[i, k])
                rows.append(row)
                cols.append(i * m + j)
            data.append(big_m[i])
            rows.append(row)
            cols.append(nx + k)
            data.append(-1.0)
            rows.append(row)
            cols.append(nx + n + i)
            rhs.append(big_m[i])
            row += 1
    a_big = sparse.csr_matrix((data, (rows, cols)), shape=(row, nx + 2 * n))
    constraints.append(LinearConstraint(a_big, -np.inf, np.array(rhs)))

    # Failure-domain spread: Σ_{i∈d,j} x_ij ≤ cap per domain d.
    if domain_ids is not None:
        dom = np.asarray(domain_ids, dtype=np.int64)
        if dom.shape != (n,):
            raise SolverError(
                f"domain_ids must have one entry per node ({n}), got {dom.shape}"
            )
        domains, dom_rows = np.unique(dom, return_inverse=True)
        rows = np.repeat(dom_rows, m)
        cols = np.arange(nx)
        a_dom = sparse.csr_matrix(
            (np.ones(nx), (rows, cols)), shape=(len(domains), nx + 2 * n)
        )
        constraints.append(
            LinearConstraint(a_dom, -np.inf, np.full(len(domains), float(domain_cap)))
        )

    res = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options.as_dict(),
    )
    if res.status != 0:
        raise SolverError(f"SD MILP failed: status={res.status} {res.message}")
    x = _round_int(res.x[:nx]).reshape(n, m)
    y = _round_int(res.x[nx : nx + n])
    center = int(np.argmax(y))
    dc = float(x.sum(axis=1).astype(np.float64) @ dist[:, center])
    return Allocation(matrix=x, center=center, distance=dc)


def solve_gsd_milp(
    requests: "list[VirtualClusterRequest | np.ndarray]",
    pool: ResourcePool,
    *,
    options: MilpOptions | None = None,
) -> "list[Allocation] | None":
    """Solve the GSD integer program (Section III.C) for a request batch.

    All requests must be jointly satisfiable (``Σ_r R^r ≤ A`` per the paper's
    provisioning condition); returns ``None`` otherwise. Minimizes
    ``Σ_r DC(C^r)`` exactly.
    """
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    demands = [normalize_request(r, pool.num_types) for r in requests]
    if not demands:
        return []
    options = options or MilpOptions()
    remaining = pool.remaining
    if np.any(sum(demands) > remaining.sum(axis=0)):
        return None
    dist = pool.distance_matrix
    n, m = remaining.shape
    p = len(demands)
    nx = p * n * m  # x^r_ij
    ny = p * n  # y^r_k
    nw = p * n  # w^r_i
    nvars = nx + ny + nw

    def xi(r: int, i: int, j: int) -> int:
        return (r * n + i) * m + j

    def yi(r: int, k: int) -> int:
        return nx + r * n + k

    def wi(r: int, i: int) -> int:
        return nx + ny + r * n + i

    x_ub = np.empty(nx)
    for r, dem in enumerate(demands):
        x_ub[r * n * m : (r + 1) * n * m] = np.minimum(
            remaining, dem[None, :]
        ).reshape(-1)
    big_m = np.empty((p, n))
    for r, dem in enumerate(demands):
        node_ub = np.minimum(remaining, dem[None, :]).sum(axis=1)
        big_m[r] = dist.max(axis=1) * node_ub

    lb = np.zeros(nvars)
    ub = np.concatenate([x_ub, np.ones(ny), big_m.reshape(-1)])
    integrality = np.concatenate([np.ones(nx), np.ones(ny), np.zeros(nw)])
    c = np.concatenate([np.zeros(nx), np.zeros(ny), np.ones(nw)])

    constraints = []

    # Demand per request/type.
    rows, cols = [], []
    for r in range(p):
        for j in range(m):
            for i in range(n):
                rows.append(r * m + j)
                cols.append(xi(r, i, j))
    a_dem = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(p * m, nvars))
    dem_rhs = np.concatenate([d.astype(float) for d in demands])
    constraints.append(LinearConstraint(a_dem, dem_rhs, dem_rhs))

    # Shared capacity: Σ_r x^r_ij ≤ L_ij.
    rows, cols = [], []
    for i in range(n):
        for j in range(m):
            for r in range(p):
                rows.append(i * m + j)
                cols.append(xi(r, i, j))
    a_cap = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n * m, nvars))
    constraints.append(LinearConstraint(a_cap, -np.inf, remaining.reshape(-1).astype(float)))

    # One center per request.
    rows = np.repeat(np.arange(p), n)
    cols = np.array([yi(r, k) for r in range(p) for k in range(n)])
    a_ctr = sparse.csr_matrix((np.ones(p * n), (rows, cols)), shape=(p, nvars))
    constraints.append(LinearConstraint(a_ctr, np.ones(p), np.ones(p)))

    # Big-M cost coupling per request.
    data, rows, cols, rhs = [], [], [], []
    row = 0
    for r in range(p):
        for i in range(n):
            for k in range(n):
                for j in range(m):
                    data.append(dist[i, k])
                    rows.append(row)
                    cols.append(xi(r, i, j))
                data.append(big_m[r, i])
                rows.append(row)
                cols.append(yi(r, k))
                data.append(-1.0)
                rows.append(row)
                cols.append(wi(r, i))
                rhs.append(big_m[r, i])
                row += 1
    a_big = sparse.csr_matrix((data, (rows, cols)), shape=(row, nvars))
    constraints.append(LinearConstraint(a_big, -np.inf, np.array(rhs)))

    res = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options.as_dict(),
    )
    if res.status != 0:
        raise SolverError(f"GSD MILP failed: status={res.status} {res.message}")
    out: list[Allocation] = []
    for r in range(p):
        x = _round_int(
            res.x[r * n * m : (r + 1) * n * m]
        ).reshape(n, m)
        y = _round_int(res.x[nx + r * n : nx + (r + 1) * n])
        center = int(np.argmax(y))
        dc = float(x.sum(axis=1).astype(np.float64) @ dist[:, center])
        out.append(Allocation(matrix=x, center=center, distance=dc))
    return out


class MilpPlacement(PlacementAlgorithm):
    """:class:`PlacementAlgorithm` adapter around :func:`solve_sd_milp`."""

    name = "milp"

    def __init__(self, options: MilpOptions | None = None) -> None:
        self.options = options or MilpOptions()

    def _place(self, pool, request, *, rng=None, obs=None):
        return solve_sd_milp(request, pool, options=self.options)
