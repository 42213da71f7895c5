"""Chimera-topology annealer emulation.

Maps a fully connected logical Ising model onto a Chimera graph with a
deterministic triangular clique embedding (qubit chains), rescales the
coefficients into a hardware range, perturbs them with control-error noise,
samples with a classical temperature-scheduled Metropolis anneal (all reads
at once, each on its own seeded random stream), and decodes chains by
majority vote.  Its purpose is the relative comparison of encodings under
coefficient noise, not absolute quantum fidelity: the "solving the wrong
problem" effect lives entirely in coefficient space.

Energy convention matches the logical models: E = offset + sum h_i s_i +
sum_{i<j} J_ij s_i s_j, so chain couplings are ferromagnetic when negative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .encoding import IsingModel


class EmbeddingError(ValueError):
    pass


HARDWARE_J_MAX = 1.0
HARDWARE_H_MAX = 2.0
CHAIN_STRENGTH_FACTOR = 1.5


@dataclass(frozen=True)
class ChimeraGraph:
    """m x m grid of K_{4,4} cells.  Vertex 8*(row*m + col) + 4*side + k,
    where side 0 qubits couple vertically between cells and side 1
    horizontally."""

    m: int
    adjacency: tuple[frozenset[int], ...]


def chimera_index(m: int, row: int, col: int, side: int, k: int) -> int:
    return 8 * (row * m + col) + 4 * side + k


def build_chimera(m: int) -> ChimeraGraph:
    if m < 1:
        raise EmbeddingError("grid size must be >= 1")
    n = 8 * m * m
    adj: list[set[int]] = [set() for _ in range(n)]

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)

    for row in range(m):
        for col in range(m):
            for k0 in range(4):
                for k1 in range(4):
                    add(
                        chimera_index(m, row, col, 0, k0),
                        chimera_index(m, row, col, 1, k1),
                    )
            if row + 1 < m:
                for k in range(4):
                    add(
                        chimera_index(m, row, col, 0, k),
                        chimera_index(m, row + 1, col, 0, k),
                    )
            if col + 1 < m:
                for k in range(4):
                    add(
                        chimera_index(m, row, col, 1, k),
                        chimera_index(m, row, col + 1, 1, k),
                    )
    return ChimeraGraph(m=m, adjacency=tuple(frozenset(a) for a in adj))


@dataclass(frozen=True)
class ChimeraEmbedding:
    chains: tuple[tuple[int, ...], ...]  # logical qubit -> physical qubits
    chain_strength: float

    @property
    def n_logical(self) -> int:
        return len(self.chains)


def min_grid_for_clique(n_logical: int) -> int:
    return max(1, math.ceil(n_logical / 4))


def embed_clique(
    n_logical: int, graph: ChimeraGraph, chain_strength: float
) -> ChimeraEmbedding:
    """Deterministic triangular clique embedding: logical qubit 4a+r owns a
    bent chain of a horizontal arm (row a, columns 0..a, side 1) and a
    vertical arm (column a, rows a..B-1, side 0), all at in-cell index r.
    Any two chains meet inside a shared cell."""
    if n_logical < 1:
        raise EmbeddingError("need at least one logical qubit")
    blocks = min_grid_for_clique(n_logical)
    if graph.m < blocks:
        raise EmbeddingError(
            f"grid of size {graph.m} too small for K_{n_logical}; "
            f"need m >= {blocks}"
        )
    chains = []
    for logical in range(n_logical):
        a, r = divmod(logical, 4)
        chain = [chimera_index(graph.m, a, c, 1, r) for c in range(a + 1)]
        chain += [chimera_index(graph.m, row, a, 0, r) for row in range(a, blocks)]
        chains.append(tuple(chain))
    emb = ChimeraEmbedding(chains=tuple(chains), chain_strength=chain_strength)
    validate_embedding(emb, graph)
    return emb


def validate_embedding(
    emb: ChimeraEmbedding,
    graph: ChimeraGraph,
    required_pairs=None,
) -> None:
    """Check vertex-disjointness, per-chain connectivity and inter-chain
    coupling coverage; raises EmbeddingError on the first violation.
    ``required_pairs`` defaults to every logical pair (clique)."""
    seen: set[int] = set()
    for u, chain in enumerate(emb.chains):
        if not chain:
            raise EmbeddingError(f"chain {u} is empty")
        cs = set(chain)
        if len(cs) != len(chain):
            raise EmbeddingError(f"chain {u} repeats a physical qubit")
        if cs & seen:
            raise EmbeddingError(f"chain {u} overlaps another chain")
        seen |= cs
        # connectivity by flood fill inside the chain
        todo = [chain[0]]
        reached = {chain[0]}
        while todo:
            q = todo.pop()
            for nb in graph.adjacency[q]:
                if nb in cs and nb not in reached:
                    reached.add(nb)
                    todo.append(nb)
        if reached != cs:
            raise EmbeddingError(f"chain {u} is not connected")
    if required_pairs is None:
        n = emb.n_logical
        required_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in required_pairs:
        if not _inter_chain_edges(emb.chains[u], emb.chains[v], graph):
            raise EmbeddingError(f"no physical edge joins chains {u} and {v}")


def _inter_chain_edges(chain_u, chain_v, graph) -> list[tuple[int, int]]:
    sv = set(chain_v)
    out = []
    for p in chain_u:
        for nb in graph.adjacency[p]:
            if nb in sv:
                out.append((p, nb))
    return sorted(out)


@dataclass(frozen=True)
class NoiseSpec:
    sigma_j: float = 0.0
    sigma_h: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_j < 0 or self.sigma_h < 0:
            raise ValueError("noise deviations must be non-negative")


@dataclass(frozen=True)
class PhysicalModel:
    """Chain-lowered, rescaled, noise-perturbed Ising model on the active
    physical qubits."""

    qubits: tuple[int, ...]  # active physical qubit ids, sorted
    h: np.ndarray  # per active slot
    couplings: tuple[tuple[int, int, float], ...]  # slot pairs
    scale: float  # global rescale factor applied before noise
    chain_strength: float

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def slot_of(self) -> dict[int, int]:
        return {q: i for i, q in enumerate(self.qubits)}


def auto_chain_strength(model: IsingModel) -> float:
    """Default ferromagnetic chain coupling: 1.5 x the largest logical |J|
    before rescaling."""
    mags = [abs(float(v)) for _, _, v in model.couplings]
    return CHAIN_STRENGTH_FACTOR * (max(mags) if mags else 1.0)


def lower_to_physical(
    model: IsingModel,
    emb: ChimeraEmbedding,
    graph: ChimeraGraph,
    noise: NoiseSpec = NoiseSpec(),
) -> PhysicalModel:
    """Distribute logical couplings over the available inter-chain edges
    (equal split), spread fields along chains, add ferromagnetic chain
    couplings, rescale everything into the hardware range, then perturb
    every nonzero coefficient with additive Gaussian noise."""
    if emb.n_logical != model.n_qubits:
        raise EmbeddingError(
            f"embedding has {emb.n_logical} chains for {model.n_qubits} "
            "logical qubits"
        )
    required = [(i, j) for i, j, v in model.couplings if v]
    validate_embedding(emb, graph, required_pairs=required)

    qubits = tuple(sorted(q for chain in emb.chains for q in chain))
    slot = {q: i for i, q in enumerate(qubits)}
    h = np.zeros(len(qubits))
    for u, chain in enumerate(emb.chains):
        hu = float(model.h[u])
        if hu:
            share = hu / len(chain)
            for q in chain:
                h[slot[q]] += share
    jmap: dict[tuple[int, int], float] = {}
    for u, v, val in model.couplings:
        fv = float(val)
        if not fv:
            continue
        edges = _inter_chain_edges(emb.chains[u], emb.chains[v], graph)
        share = fv / len(edges)
        for p, q in edges:
            key = (slot[p], slot[q]) if slot[p] < slot[q] else (slot[q], slot[p])
            jmap[key] = jmap.get(key, 0.0) + share
    for chain in emb.chains:
        cs = set(chain)
        for p in chain:
            for nb in graph.adjacency[p]:
                if nb in cs and p < nb:
                    jmap[(slot[p], slot[nb])] = -emb.chain_strength

    max_j = max((abs(v) for v in jmap.values()), default=0.0)
    max_h = float(np.abs(h).max()) if h.size else 0.0
    scale = 1.0
    if max_j > 0:
        scale = min(scale, HARDWARE_J_MAX / max_j)
    if max_h > 0:
        scale = min(scale, HARDWARE_H_MAX / max_h)
    h = h * scale
    jmap = {k: v * scale for k, v in jmap.items()}

    if noise.sigma_j > 0 or noise.sigma_h > 0:
        rng = np.random.default_rng(noise.seed)
        for k in sorted(jmap):
            jmap[k] += rng.normal(0.0, noise.sigma_j) if noise.sigma_j else 0.0
        nz = np.flatnonzero(h)
        if noise.sigma_h:
            h[nz] += rng.normal(0.0, noise.sigma_h, size=nz.size)

    couplings = tuple((i, j, v) for (i, j), v in sorted(jmap.items()))
    return PhysicalModel(
        qubits=qubits,
        h=h,
        couplings=couplings,
        scale=scale,
        chain_strength=emb.chain_strength,
    )


@dataclass(frozen=True)
class AnnealParams:
    sweeps: int = 1000

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"need at least one sweep, got {self.sweeps}")

    def schedule(self, phys: PhysicalModel) -> np.ndarray:
        de = _flip_scales(phys)
        de_max = float(de.max()) if de.size and de.max() > 0 else 1.0
        de_min = float(de[de > 0].min()) if (de > 0).any() else de_max
        de_min = max(de_min, de_max / 1e3)
        # acceptance exp(-beta dE) runs from 1/2 for the largest flip to
        # 1/200 for the smallest
        hot = math.log(2.0) / de_max
        cold = math.log(200.0) / de_min
        return np.geomspace(hot, cold, self.sweeps)


def _flip_scales(phys: PhysicalModel) -> np.ndarray:
    """Worst-case |energy change| of flipping each spin."""
    acc = np.abs(phys.h).astype(float)
    for i, j, v in phys.couplings:
        acc[i] += abs(v)
        acc[j] += abs(v)
    return 2.0 * acc


def sample(
    phys: PhysicalModel,
    reads: int,
    seed: int,
    params: AnnealParams = AnnealParams(),
) -> np.ndarray:
    """`reads` independent anneals; returns (reads, n_physical) +-1 spins,
    deterministic per seed."""
    if reads < 1:
        raise ValueError("need at least one read")
    n = phys.n_qubits
    # CSR neighbour lists: each row lists its couplings in the order of
    # phys.couplings, the order in which the sampler sums a field
    pairs = np.array([(i, j) for i, j, _ in phys.couplings], dtype=np.int64).reshape(-1, 2)
    rows = pairs.reshape(-1)
    order = np.argsort(rows, kind="stable")
    idx = pairs[:, ::-1].reshape(-1)[order]
    val = np.repeat([float(v) for _, _, v in phys.couplings], 2)[order]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    betas = params.schedule(phys)
    seeds = np.random.SeedSequence(seed).generate_state(reads).astype(np.int64)
    return _kernels.metropolis_reads(ptr, idx, val, phys.h, betas, reads, seeds)


@dataclass(frozen=True)
class SampleSet:
    """Majority-decoded reads with energies evaluated against the noiseless
    logical model (these equal the exact squared lattice lengths)."""

    configs: np.ndarray  # (reads, n_logical) +-1
    energies: np.ndarray  # float64
    lengths_sq: np.ndarray  # int64, rounded energies
    chain_break_fraction: np.ndarray  # per read

    @property
    def reads(self) -> int:
        return self.configs.shape[0]

    def to_json(self) -> dict:
        return {
            "reads": self.reads,
            "samples": [
                {
                    "logical_config": list(map(int, self.configs[i])),
                    "energy": float(self.energies[i]),
                    "length_sq": int(self.lengths_sq[i]),
                    "chain_break_fraction": float(self.chain_break_fraction[i]),
                }
                for i in range(self.reads)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SampleSet":
        samples = obj["samples"]
        return cls(
            configs=np.array([s["logical_config"] for s in samples], dtype=np.int8),
            energies=np.array([s["energy"] for s in samples]),
            lengths_sq=np.array([s["length_sq"] for s in samples], dtype=np.int64),
            chain_break_fraction=np.array(
                [s["chain_break_fraction"] for s in samples]
            ),
        )


def decode_majority(
    raw: np.ndarray,
    emb: ChimeraEmbedding,
    phys: PhysicalModel,
    logical_model: IsingModel,
    seed: int = 0,
) -> SampleSet:
    """Per chain, the logical spin is the sign of the member sum; ties are
    broken by a seeded coin.  Energies are recomputed against the noiseless
    logical model."""
    slot = phys.slot_of()
    reads = raw.shape[0]
    n_log = emb.n_logical
    configs = np.empty((reads, n_log), dtype=np.int8)
    breaks = np.zeros((reads, n_log), dtype=bool)
    rng = np.random.default_rng(seed)
    for u, chain in enumerate(emb.chains):
        cols = [slot[q] for q in chain]
        sums = raw[:, cols].astype(np.int64).sum(axis=1)
        sign = np.sign(sums).astype(np.int8)
        ties = sign == 0
        if ties.any():
            sign[ties] = np.where(
                rng.random(int(ties.sum())) < 0.5, 1, -1
            ).astype(np.int8)
        configs[:, u] = sign
        breaks[:, u] = np.abs(sums) != len(chain)

    hvec = np.array([float(v) for v in logical_model.h])
    energies = np.full(reads, float(logical_model.offset))
    sf = configs.astype(np.float64)
    energies += sf @ hvec
    for i, j, v in logical_model.couplings:
        energies += float(v) * sf[:, i] * sf[:, j]
    lengths = np.rint(energies).astype(np.int64)
    return SampleSet(
        configs=configs,
        energies=energies,
        lengths_sq=lengths,
        chain_break_fraction=breaks.mean(axis=1),
    )
