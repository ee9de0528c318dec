"""End-to-end clustering: embed vertices, scale by degree, run k-means.

The default mode (pm_log_k) embeds the n vertices into about log2(k)
dimensions: each column is a Gaussian vector pushed through t steps of
the power method of the signless normalized Laplacian. Rows are then
scaled by deg(u)^{-1/2} and clustered with restarted Lloyd. Three
comparison modes swap the embedding: pm_k uses k power-iterated columns
orthonormalized once at the end; eigs_k and eigs_log_k use actual
eigenvectors from the block eigensolver.

Also here: a small-instance harness that checks how well the random
embedding preserves k-means costs relative to the true spectral
embedding, using dense eigendecompositions as the oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from specluster.errors import InputError
from specluster.graph import Graph
from specluster.kmeans import Partition, PointSet, kmeans_cost, lloyd
from specluster.spectral import (
    EmbeddingMatrix,
    SignlessLaplacianOp,
    dense_signless_laplacian,
    pm_k_orthonormal_vectors,
    power_method,
    rng_for,
    sample_gaussian_vectors,
    subspace_iteration_eigs,
)

MODES = ("pm_log_k", "pm_k", "eigs_k", "eigs_log_k")

# Spectral-gap constants: with the tail bounded by c1, a power-method run of
# t = ceil(c3 * ln(24 n / (eps^2 k))) steps with c3 = 1/(2 ln(1/c1)) damps
# tail components enough for the eps*sqrt(k) approximation guarantee; c2 is
# the matching head-eigenvalue requirement scale.
C1 = 0.5
C3 = 1.0 / (2.0 * math.log(1.0 / C1))
C2 = 1.0 / (2.0 * math.sqrt(6.0) * C3)

_TAG_KMEANS = 2
_TAG_RANDOM_PARTITIONS = 5


def _steps_for(n: int, epsilon: float, k: int) -> int:
    return int(math.ceil(C3 * math.log(24.0 * n / (epsilon * epsilon * k))))


@dataclass
class SpectralParams:
    """Knobs for the clustering pipeline.

    l and t left unset pick the practical defaults l = max(1, ceil(log2 k)),
    t = ceil(10 ln(max(2, n/k))). Setting epsilon instead derives them from
    the accuracy analysis: l = min(k, ceil((log2 k + log2(1/eps)) / eps^2)),
    t = ceil(c3 ln(24 n / (eps^2 k))). Explicit l or t always wins. For the
    eigs_k / pm_k modes the default column count is k; for the *_log_k
    modes it is ceil(log2 k).
    """

    k: int
    epsilon: float | None = None
    l: int | None = None
    t: int | None = None
    mode: str = "pm_log_k"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 2:
            raise InputError(f"need k >= 2, got k={self.k}")
        if self.epsilon is not None and not 0.0 < self.epsilon <= 1.0:
            raise InputError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.l is not None and self.l < 1:
            raise InputError(f"l must be >= 1, got {self.l}")
        if self.t is not None and self.t < 0:
            raise InputError(f"t must be >= 0, got {self.t}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")

    def num_columns(self, n: int) -> int:
        """Embedding width actually used for this mode."""
        if self.l is not None:
            return self.l
        log_k = max(1, math.ceil(math.log2(self.k)))
        if self.mode in ("pm_k", "eigs_k"):
            return self.k
        if self.mode == "pm_log_k" and self.epsilon is not None:
            return min(self.k, math.ceil((math.log2(self.k) + math.log2(1.0 / self.epsilon))
                                         / self.epsilon**2))
        return log_k

    def num_steps(self, n: int) -> int:
        if self.t is not None:
            return self.t
        if self.epsilon is not None:
            return _steps_for(n, self.epsilon, self.k)
        return int(math.ceil(10.0 * math.log(max(2.0, n / self.k))))


@dataclass
class PipelineResult:
    partition: Partition
    embedding: EmbeddingMatrix  # the scaled point set handed to k-means
    timings: dict[str, float]  # milliseconds: embed, scale, kmeans, total
    mode: str
    l: int
    t: int | None  # None for eigs modes
    eigs_converged: bool | None = None
    eigs_iterations: int | None = None


def _kmeans_seed(seed: int) -> int:
    return int(np.random.SeedSequence([seed, _TAG_KMEANS]).generate_state(1)[0])


def fast_spectral_cluster(g: Graph, params: SpectralParams) -> PipelineResult:
    """Cluster the graph's vertices into k parts; see the module docstring.

    Timings cover algorithm work only (no file I/O), in milliseconds,
    measured on a monotonic clock, with stages embed / scale / kmeans and
    their sum as total.
    """
    if params.k > g.n:
        raise InputError(f"k={params.k} exceeds the vertex count n={g.n}")
    op = SignlessLaplacianOp(g)
    cols = params.num_columns(g.n)
    if cols > g.n:
        raise InputError(f"embedding width l={cols} exceeds n={g.n}")
    steps: int | None = None
    converged: bool | None = None
    eigs_iters: int | None = None

    t0 = time.perf_counter()
    if params.mode == "pm_log_k":
        steps = params.num_steps(g.n)
        raw = power_method(op, sample_gaussian_vectors(g.n, cols, params.seed).data, steps)
    elif params.mode == "pm_k":
        steps = params.num_steps(g.n)
        raw = pm_k_orthonormal_vectors(op, cols, steps, params.seed).data
    else:
        res = subspace_iteration_eigs(op, cols, seed=params.seed)
        raw = res.vectors.data
        converged = res.converged
        eigs_iters = res.iterations
    t1 = time.perf_counter()
    scaled = raw * op.inv_sqrt_degrees[:, None]
    embedding = EmbeddingMatrix(data=scaled, scaled=True, seed=params.seed)
    t2 = time.perf_counter()
    part = lloyd(PointSet(scaled), params.k, seed=_kmeans_seed(params.seed))
    t3 = time.perf_counter()

    timings = {
        "embed": (t1 - t0) * 1e3,
        "scale": (t2 - t1) * 1e3,
        "kmeans": (t3 - t2) * 1e3,
        "total": (t3 - t0) * 1e3,
    }
    return PipelineResult(
        partition=part,
        embedding=embedding,
        timings=timings,
        mode=params.mode,
        l=cols,
        t=steps,
        eigs_converged=converged,
        eigs_iterations=eigs_iters,
    )


# ---------------------------------------------------------------------------
# Cost-preservation harness (dense oracle, small n only)


@dataclass
class CostPreservationReport:
    """How well random embeddings preserve k-means costs on one instance.

    F: top-k eigenvector embedding (dense oracle). Z: its random
    projection P X0 with the projector applied to l_jl Gaussian columns.
    Y: the power-method iterate M^t X0. All three are compared after
    deg^{-1/2} row scaling. The multiplicative ratio normalizes Z by the
    projection width (cost_Z / (l_jl * cost_F)); the additive deviation
    compares Y and Z unnormalized, as the power method approximates P X0
    itself.
    """

    n: int
    k: int
    epsilon: float
    l_jl: int
    t: int
    planted_mult_ratio: float
    max_mult_dev: float  # max |ratio - 1| over planted + random partitions
    fro_additive_dev: float  # ||D^{-1/2}(Y - Z)||_F
    max_sqrt_cost_dev: float  # max |sqrt(cost_Y) - sqrt(cost_Z)| over partitions
    additive_bound: float  # epsilon * k
    trials: int
    partitions_checked: int = field(default=0)

    @property
    def planted_mult_ok(self) -> bool:
        return abs(self.planted_mult_ratio - 1.0) <= self.epsilon

    @property
    def additive_ok(self) -> bool:
        return self.fro_additive_dev <= self.additive_bound


_HARNESS_MAX_N = 300


def kmeans_cost_preservation_check(
    g: Graph,
    k: int,
    epsilon: float,
    trials: int,
    seed: int,
    planted: Partition | None = None,
) -> CostPreservationReport:
    """Evaluate cost preservation of the random embeddings on one graph.

    Needs dense eigenvectors, so n is capped at 300. The projection width
    here is the uncapped analysis value l_jl = ceil((log2 k + log2(1/eps))
    / eps^2); the pipeline caps its width at k for speed, but the cost
    comparison is a statement about the projection, so the harness uses
    the width the statement is about.
    """
    if g.n > _HARNESS_MAX_N:
        raise InputError(f"dense harness refuses n={g.n} > {_HARNESS_MAX_N}")
    if not 2 <= k <= g.n:
        raise InputError(f"need 2 <= k <= n, got k={k}, n={g.n}")
    if not 0.0 < epsilon <= 1.0:
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon}")

    l_jl = math.ceil((math.log2(k) + math.log2(1.0 / epsilon)) / epsilon**2)
    t = _steps_for(g.n, epsilon, k)

    m = dense_signless_laplacian(g)
    evals, evecs = np.linalg.eigh(m)  # ascending
    f = evecs[:, ::-1][:, :k]  # top-k eigenvectors
    x0 = sample_gaussian_vectors(g.n, l_jl, seed).data
    z = f @ (f.T @ x0)
    y = power_method(m, x0, t)

    s = 1.0 / np.sqrt(g.degrees)
    b_f = PointSet(f * s[:, None])
    b_z = PointSet(z * s[:, None])
    b_y = PointSet(y * s[:, None])

    fro_dev = float(np.linalg.norm((y - z) * s[:, None]))

    parts: list[Partition] = []
    if planted is not None:
        parts.append(planted)
    rng = rng_for(seed, _TAG_RANDOM_PARTITIONS)
    for _ in range(trials):
        parts.append(Partition(labels=rng.integers(0, k, size=g.n), k=k))

    planted_ratio = math.nan
    max_mult_dev = 0.0
    max_sqrt_dev = 0.0
    for i, part in enumerate(parts):
        c_f = kmeans_cost(b_f, part)
        c_z = kmeans_cost(b_z, part)
        c_y = kmeans_cost(b_y, part)
        ratio = c_z / (l_jl * c_f) if c_f > 0 else math.inf
        if planted is not None and i == 0:
            planted_ratio = ratio
        max_mult_dev = max(max_mult_dev, abs(ratio - 1.0))
        max_sqrt_dev = max(max_sqrt_dev, abs(math.sqrt(c_y) - math.sqrt(c_z)))

    return CostPreservationReport(
        n=g.n,
        k=k,
        epsilon=epsilon,
        l_jl=l_jl,
        t=t,
        planted_mult_ratio=planted_ratio,
        max_mult_dev=max_mult_dev,
        fro_additive_dev=fro_dev,
        max_sqrt_cost_dev=max_sqrt_dev,
        additive_bound=epsilon * k,
        trials=trials,
        partitions_checked=len(parts),
    )
