"""Noisy subshifts of finite type: classification, repair, and
empirical Besicovitch distance estimation.

Local admissibility treats a constraint as violated only when every cell
it touches is clear, so obscured cells never create violations.  The
repair operators rewrite as little as possible while restoring global
admissibility on a stated interior.
"""

from .automaton1d import (
    Classification,
    RepairConstants,
    WordAutomaton,
    build_automaton,
    classify,
    is_globally_admissible,
    repair_constants,
)
from .core import (
    ALTERNATING,
    GOLDEN_MEAN,
    Grid,
    NoiseMask,
    Pattern,
    Sft,
    SftParseError,
    is_locally_admissible,
    parse_sft,
    word_sft,
)
from .harness import (
    ExperimentSpec,
    format_csv,
    run_instability_bern1d,
    run_instability_grid2d,
    run_instability_phase1d,
    run_perc_sweep,
    run_repair1d_sweep,
    run_repair2d_sweep,
    run_robinson_repair,
    write_plot,
)
from .noise import (
    Bernoulli,
    bernoulli_masks,
    derive_seed,
    marginal_rate,
    parse_model,
    sample_mask,
)
from .percolation import (
    exclusion_bound,
    open_components,
)
from .repair import (
    PeriodicSft,
    Repair1DReport,
    RepairPeriodicReport,
    local_global_constant,
    parse_periodic,
    repair_1d,
    repair_periodic,
)
from .robinson import (
    NTILES,
    RobinsonRepairReport,
    build_macro,
    edge_words,
    is_admissible,
    robinson_bound,
    robinson_repair,
    verify_suite,
)

__version__ = "0.1.0"
