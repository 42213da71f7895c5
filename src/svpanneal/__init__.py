"""Lattice shortest-vector instances compiled to Ising annealing."""

from . import dynamics, emulator, encoding, experiments, lattice, spectrum
from .dynamics import (
    IntegratorError,
    SweepResult,
    SweepSchedule,
    evolve,
)
from .emulator import (
    AnnealParams,
    ChimeraEmbedding,
    ChimeraGraph,
    EmbeddingError,
    NoiseSpec,
    PhysicalModel,
    SampleSet,
    build_chimera,
    decode_majority,
    embed_clique,
    lower_to_physical,
    sample,
    validate_embedding,
)
from .encoding import (
    EncodingError,
    IsingModel,
    QuditEncoding,
    QuditLayout,
    SpinConfig,
    compile_ising,
    parse_encoding,
    problem_diagonal_ints,
    qudit_value,
)
from .experiments import (
    FoMReport,
    FourProbs,
    InstanceRecord,
    LengthHistogram,
    aggregate,
    baseline,
    figures_of_merit,
    histogram,
)
from .lattice import (
    Basis,
    GramMatrix,
    HnfBasis,
    Instance,
    LatticeError,
    OracleResult,
    QubitBudget,
    ResourceLimitError,
    auto_box,
    brute_force_svp,
    coefficient_box,
    generate_instance,
    gram,
    hnf,
    is_optimal_hnf,
    minkowski_bound,
    qubit_budget,
)
from .spectrum import (
    DriverSpec,
    GapProfile,
    ProblemDiagonal,
    SpectrumError,
    gap_scan,
    sector_gap_scan,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
