import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import svpanneal as sa
from svpanneal import _kernels, emulator

from oracles import complete_graph, identity_embedding, neighbour_lists, reference_sample


def enumerate_model_energies(h, couplings, n):
    """Exhaustive energies of an arbitrary (h, J) spin model."""
    idx = np.arange(1 << n)
    spins = 1 - 2 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)
    e = spins @ np.asarray(h, dtype=float)
    for i, j, v in couplings:
        e = e + v * spins[:, i] * spins[:, j]
    return e, spins


def compiled_3d(seed=1, family="hamming"):
    inst = sa.generate_instance(3, seed)
    enc = (sa.QuditEncoding.hamming(rng=(-2, 2)) if family == "hamming"
           else sa.QuditEncoding.binary(k=2))
    return inst, sa.compile_ising(sa.gram(inst.bad), enc)


class TestChimeraGraph:
    @pytest.mark.parametrize("m,vertices,edges", [
        (1, 8, 16),
        (2, 32, 80),
        (3, 72, 192),
    ])
    def test_counts_match_closed_form(self, m, vertices, edges):
        g = sa.build_chimera(m)
        n_edges = sum(len(a) for a in g.adjacency) // 2
        assert len(g.adjacency) == vertices == 8 * m * m
        assert n_edges == edges == 16 * m * m + 8 * m * (m - 1)

    def test_degree_bound(self):
        g = sa.build_chimera(3)
        assert max(len(a) for a in g.adjacency) <= 6

    def test_cell_structure(self):
        g = sa.build_chimera(2)

        def has_edge(a, b):
            return (emulator.chimera_index(2, *b)
                    in g.adjacency[emulator.chimera_index(2, *a)])

        # within a cell: complete bipartite, no same-side edges
        for k0 in range(4):
            for k1 in range(4):
                assert has_edge((0, 0, 0, k0), (0, 0, 1, k1))
            assert not has_edge((0, 0, 0, 0), (0, 0, 0, 1))
        # vertical couplers join side 0, horizontal side 1
        assert has_edge((0, 0, 0, 2), (1, 0, 0, 2))
        assert has_edge((0, 0, 1, 2), (0, 1, 1, 2))

    def test_invalid_size(self):
        with pytest.raises(sa.EmbeddingError):
            sa.build_chimera(0)


class TestCliqueEmbedding:
    def test_k4_in_single_cell(self):
        g = sa.build_chimera(1)
        emb = sa.embed_clique(4, g, chain_strength=1.0)
        assert emb.n_logical == 4
        assert all(len(c) == 2 for c in emb.chains)
        assert sum(map(len, emb.chains)) == 8

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_produced_embeddings_validate(self, n):
        g = sa.build_chimera(emulator.min_grid_for_clique(n))
        emb = sa.embed_clique(n, g, chain_strength=1.0)
        sa.validate_embedding(emb, g)  # raises on any violation

    def test_quadratic_growth(self):
        def n_physical(n):
            emb = sa.embed_clique(
                n, sa.build_chimera(emulator.min_grid_for_clique(n)), 1.0
            )
            return sum(map(len, emb.chains))

        ratios = [n_physical(2 * n) / n_physical(n) for n in (8, 16)]
        assert all(3.0 <= r <= 5.0 for r in ratios)

    def test_too_small_graph_reports_minimum(self):
        g = sa.build_chimera(1)
        with pytest.raises(sa.EmbeddingError, match="m >= 2"):
            sa.embed_clique(5, g, chain_strength=1.0)

    def test_checker_rejects_deleted_edge(self):
        g = sa.build_chimera(2)
        emb = sa.embed_clique(8, g, chain_strength=1.0)
        # remove one edge used inside the longest chain
        chain = max(emb.chains, key=len)
        u, v = None, None
        for p in chain:
            for q in chain:
                if p < q and q in g.adjacency[p]:
                    u, v = p, q
        adj = [set(a) for a in g.adjacency]
        adj[u].discard(v)
        adj[v].discard(u)
        broken = emulator.ChimeraGraph(
            m=g.m, adjacency=tuple(frozenset(a) for a in adj)
        )
        with pytest.raises(sa.EmbeddingError):
            sa.validate_embedding(emb, broken)

    def test_checker_rejects_overlap(self):
        g = sa.build_chimera(1)
        emb = emulator.ChimeraEmbedding(
            chains=((0, 4), (0, 5)), chain_strength=1.0
        )
        with pytest.raises(sa.EmbeddingError, match="overlap"):
            sa.validate_embedding(emb, g, required_pairs=[])


class TestLowerToPhysical:
    def test_identity_embedding_is_rescaled_logical(self):
        _, model = compiled_3d(family="binary")
        n = model.n_qubits
        g = complete_graph(n)
        emb = identity_embedding(n)
        phys = sa.lower_to_physical(model, emb, g)
        # physical couplings = scale * logical couplings, fields likewise
        logical = {(i, j): float(v) for i, j, v in model.couplings}
        assert phys.scale > 0
        got = {(i, j): v for i, j, v in phys.couplings}
        assert set(got) == set(logical)
        for k, v in logical.items():
            assert got[k] == pytest.approx(v * phys.scale, rel=1e-12)
        maxj = max(abs(v) for v in got.values())
        assert maxj <= emulator.HARDWARE_J_MAX + 1e-12

    @pytest.mark.parametrize("family", ["binary", "hamming"])
    def test_noiseless_ground_state_preserved(self, family):
        inst = sa.generate_instance(2, 3)
        enc = (sa.QuditEncoding.binary(k=1) if family == "binary"
               else sa.QuditEncoding.hamming(k=0))
        model = sa.compile_ising(sa.gram(inst.bad), enc)
        graph = sa.build_chimera(emulator.min_grid_for_clique(model.n_qubits))
        emb = sa.embed_clique(
            model.n_qubits, graph, emulator.auto_chain_strength(model)
        )
        phys = sa.lower_to_physical(model, emb, graph)
        assert phys.n_qubits <= 16
        e_phys, spins = enumerate_model_energies(
            phys.h, phys.couplings, phys.n_qubits
        )
        ground = spins[int(np.argmin(e_phys))]
        # decode the physical ground state: every chain must be unanimous
        # and yield the logical ground state (energy 0)
        slot = phys.slot_of()
        logical = []
        for chain in emb.chains:
            vals = {int(ground[slot[q]]) for q in chain}
            assert len(vals) == 1
            logical.append(vals.pop())
        cfg = sa.SpinConfig(tuple(logical))
        assert model.energy(cfg) == 0

    def test_binary_rescales_harder_than_hamming(self):
        inst, mh = compiled_3d(seed=2, family="hamming")
        _, mb = (inst, sa.compile_ising(sa.gram(inst.bad),
                                        sa.QuditEncoding.binary(k=2)))
        for model_pair in [(mh, mb)]:
            scales = []
            for model in model_pair:
                graph = sa.build_chimera(
                    emulator.min_grid_for_clique(model.n_qubits)
                )
                emb = sa.embed_clique(
                    model.n_qubits, graph, emulator.auto_chain_strength(model)
                )
                scales.append(sa.lower_to_physical(model, emb, graph).scale)
        assert scales[1] < scales[0]

    def test_missing_coupling_edge_detected(self):
        _, model = compiled_3d(family="binary")
        n = model.n_qubits
        # complete graph minus the edge for one required logical coupling
        i, j, _ = model.couplings[0]
        adj = [set(v for v in range(n) if v != u) for u in range(n)]
        adj[i].discard(j)
        adj[j].discard(i)
        broken = emulator.ChimeraGraph(
            m=0, adjacency=tuple(frozenset(a) for a in adj)
        )
        with pytest.raises(sa.EmbeddingError):
            sa.lower_to_physical(model, identity_embedding(n), broken)

    def test_noise_seeded_and_applied_to_nonzero(self):
        _, model = compiled_3d(family="hamming")
        n = model.n_qubits
        g = complete_graph(n)
        emb = identity_embedding(n)
        noise = emulator.NoiseSpec(sigma_j=0.05, sigma_h=0.05, seed=11)
        a = sa.lower_to_physical(model, emb, g, noise)
        b = sa.lower_to_physical(model, emb, g, noise)
        assert np.array_equal(a.h, b.h)
        assert a.couplings == b.couplings
        # hamming has identically zero fields; they must stay zero
        assert np.all(a.h == 0.0)
        clean = sa.lower_to_physical(model, emb, g)
        dirty = dict(((i, j), v) for i, j, v in a.couplings)
        ref = dict(((i, j), v) for i, j, v in clean.couplings)
        diffs = [abs(dirty[k] - ref[k]) for k in ref]
        assert all(d > 0 for d in diffs)
        assert max(diffs) < 0.3  # a few sigma


class TestSampler:
    def test_ferromagnetic_chain_aligns(self):
        phys = emulator.PhysicalModel(
            qubits=(0, 1), h=np.zeros(2),
            couplings=((0, 1, -1.0),), scale=1.0, chain_strength=1.0,
        )
        raw = sa.sample(phys, reads=400, seed=5)
        aligned = (raw[:, 0] == raw[:, 1]).mean()
        assert aligned > 0.95

    def test_zero_coupling_uniform_marginals(self):
        phys = emulator.PhysicalModel(
            qubits=(0, 1, 2), h=np.zeros(3),
            couplings=(), scale=1.0, chain_strength=1.0,
        )
        reads = 2000
        raw = sa.sample(phys, reads=reads, seed=9)
        up = (raw == 1).mean(axis=0)
        bound = 3 * 0.5 / np.sqrt(reads)
        assert np.all(np.abs(up - 0.5) <= bound)

    def test_seeded_determinism(self):
        phys = emulator.PhysicalModel(
            qubits=(0, 1, 2), h=np.array([0.1, -0.2, 0.0]),
            couplings=((0, 1, -0.5), (1, 2, 0.3)), scale=1.0,
            chain_strength=1.0,
        )
        a = sa.sample(phys, reads=50, seed=123)
        b = sa.sample(phys, reads=50, seed=123)
        c = sa.sample(phys, reads=50, seed=124)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reads_validation(self):
        phys = emulator.PhysicalModel(
            qubits=(0,), h=np.zeros(1), couplings=(), scale=1.0,
            chain_strength=1.0,
        )
        with pytest.raises(ValueError):
            sa.sample(phys, reads=0, seed=1)

    @pytest.mark.parametrize("sweeps", [0, -3])
    def test_sweeps_validation(self, sweeps):
        # zero sweeps used to return the unannealed random start state
        with pytest.raises(ValueError, match="sweep"):
            sa.AnnealParams(sweeps=sweeps)


def noisy_embedded(family):
    """3D lattice seed 0 lowered onto Chimera with sigma = 0.05 noise."""
    _, model = compiled_3d(seed=0, family=family)
    graph = sa.build_chimera(emulator.min_grid_for_clique(model.n_qubits))
    emb = sa.embed_clique(model.n_qubits, graph, emulator.auto_chain_strength(model))
    return sa.lower_to_physical(model, emb, graph, sa.NoiseSpec(0.05, 0.05, seed=0))


@st.composite
def tie_models(draw):
    """Small graphs in any coupling order, with coefficients from a coarse
    grid that includes zero, so many flips have an energy change of
    exactly zero, and +-2^53, so a field's rounding depends on the order
    of its terms."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coeff = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0**53, -2.0**53])
    couplings = tuple((i, j, draw(coeff)) for i, j in edges)
    h = np.array([draw(coeff) for _ in range(n)])
    return emulator.PhysicalModel(qubits=tuple(range(n)), h=h, couplings=couplings,
                                  scale=1.0, chain_strength=1.0)


class TestSamplerMatchesReference:
    """The vectorised sampler reproduces the one-spin-at-a-time loop in
    ``oracles.metropolis_reference`` exactly: same random streams, same
    spins."""

    @pytest.mark.parametrize("reads", [1, 3, 32])
    @pytest.mark.parametrize("family", ["hamming", "binary"])
    def test_embedded_noisy_models(self, family, reads):
        phys = noisy_embedded(family)
        params = sa.AnnealParams(sweeps=50)
        got = sa.sample(phys, reads=reads, seed=17, params=params)
        assert np.array_equal(got, reference_sample(phys, reads, 17, params))

    def test_complete_graph(self):
        # every pair of slots is coupled, so every run is a single slot
        _, model = compiled_3d(seed=2, family="binary")
        n = model.n_qubits
        phys = sa.lower_to_physical(model, identity_embedding(n), complete_graph(n),
                                    sa.NoiseSpec(0.05, 0.05, seed=1))
        params = sa.AnnealParams(sweeps=50)
        got = sa.sample(phys, reads=5, seed=3, params=params)
        assert np.array_equal(got, reference_sample(phys, 5, 3, params))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(tie_models(), st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_small_graphs_with_ties(self, phys, reads, sweeps, seed):
        params = sa.AnnealParams(sweeps=sweeps)
        got = sa.sample(phys, reads=reads, seed=seed, params=params)
        assert np.array_equal(got, reference_sample(phys, reads, seed, params))


class TestBoltzmann:
    """At a fixed beta every sweep leaves the Boltzmann distribution
    invariant, so after a burn-in the reads are exact Boltzmann samples."""

    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(st.integers(2, 6), st.floats(1.0, 4.0), st.integers(0, 2**32 - 1))
    def test_fixed_beta_reaches_boltzmann(self, n, spread, seed):
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        couplings = [(i, j, rng.uniform(-1, 1)) for i, j in pairs if rng.random() < 0.7]
        h = rng.uniform(-1, 1, n)
        energies, _ = enumerate_model_energies(h, couplings, n)
        # beta spreads the Boltzmann weights over a factor exp(spread)
        beta = spread / (energies.max() - energies.min())
        p = np.exp(-beta * (energies - energies.min()))
        p /= p.sum()

        reads = 4000
        seeds = np.random.SeedSequence(seed).generate_state(reads)
        ptr, idx, val = neighbour_lists(n, couplings)
        raw = _kernels.metropolis_reads(ptr, idx, val, h, np.full(100, beta), reads, seeds)

        # configuration index in the enumeration's bit order (spin -1 is bit 1)
        config = ((raw == -1) * (1 << np.arange(n))).sum(axis=1)
        freq = np.bincount(config, minlength=1 << n) / reads
        stderr = np.sqrt(p * (1 - p) / reads)
        assert np.all(np.abs(freq - p) <= 5 * stderr)


class TestDecodeMajority:
    def _setup(self):
        _, model = compiled_3d(seed=4, family="binary")
        graph = sa.build_chimera(emulator.min_grid_for_clique(model.n_qubits))
        emb = sa.embed_clique(
            model.n_qubits, graph, emulator.auto_chain_strength(model)
        )
        phys = sa.lower_to_physical(model, emb, graph)
        return model, emb, phys

    def test_unanimous_chains_no_breaks(self):
        model, emb, phys = self._setup()
        raw = np.ones((3, phys.n_qubits), dtype=np.int8)
        ss = sa.decode_majority(raw, emb, phys, model)
        assert np.all(ss.chain_break_fraction == 0.0)
        assert np.all(ss.configs == 1)

    def test_majority_vote(self):
        model, emb, phys = self._setup()
        slot = phys.slot_of()
        raw = np.ones((1, phys.n_qubits), dtype=np.int8)
        # flip a minority of the first chain (length 4: one member)
        chain = emb.chains[0]
        raw[0, slot[chain[0]]] = -1
        ss = sa.decode_majority(raw, emb, phys, model)
        assert ss.configs[0, 0] == 1
        assert ss.chain_break_fraction[0] == pytest.approx(1 / len(emb.chains))

    def test_tie_break_seeded_and_fair(self):
        model = sa.compile_ising(
            sa.gram(sa.Basis(((1, 0), (0, 1)))), sa.QuditEncoding.binary(k=0)
        )
        graph = complete_graph(4)
        emb = emulator.ChimeraEmbedding(chains=((0, 1), (2, 3)),
                                        chain_strength=1.0)
        phys = sa.lower_to_physical(model, emb, graph)
        raw = np.array([[1, -1, 1, -1]], dtype=np.int8)  # both chains tied
        one = sa.decode_majority(raw, emb, phys, model, seed=7)
        two = sa.decode_majority(raw, emb, phys, model, seed=7)
        assert np.array_equal(one.configs, two.configs)
        outcomes = [
            sa.decode_majority(raw, emb, phys, model, seed=s).configs[0, 0]
            for s in range(200)
        ]
        frac = np.mean([o == 1 for o in outcomes])
        assert 0.35 < frac < 0.65

    def test_energies_against_logical_model(self):
        model, emb, phys = self._setup()
        raw = sa.sample(phys, reads=20, seed=2)
        ss = sa.decode_majority(raw, emb, phys, model, seed=3)
        for i in range(ss.reads):
            cfg = sa.SpinConfig(tuple(int(v) for v in ss.configs[i]))
            assert float(model.energy(cfg)) == pytest.approx(ss.energies[i])
            assert ss.lengths_sq[i] == int(model.energy(cfg))

    def test_sampleset_json_roundtrip(self):
        model, emb, phys = self._setup()
        raw = sa.sample(phys, reads=10, seed=2)
        ss = sa.decode_majority(raw, emb, phys, model, seed=3)
        back = emulator.SampleSet.from_json(json.loads(json.dumps(ss.to_json())))
        assert np.array_equal(back.configs, ss.configs)
        assert np.array_equal(back.lengths_sq, ss.lengths_sq)
