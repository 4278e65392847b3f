"""Multi-connectivity multicast scheduling: pick one PRB per cell so
that as many users as possible can decode the stream from some cell.

The package splits into a combinatorial layer (`coverage`, `solvers`)
that knows nothing about radio, and a simulation layer (`scenario`,
`kernel`, `harness`) that produces coverage instances from a cellular
model and sweeps its parameters.  The names below are the public API;
everything else is reached through its submodule.
"""

from .coverage import (
    Allocation,
    AllocationError,
    CoverageInstance,
    InstanceError,
    served,
)
from .solvers import (
    EnumerationBudgetError,
    SolveResult,
    greedy_bound,
    solve_exact,
    solve_greedy,
    solve_sc_baseline,
)
from .scenario import (
    ChannelParams,
    Scenario,
    StreamSpec,
    derive_instance,
    generate_scenario,
    sample_rates,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    instance_from_dict,
    load_instance,
    run_sweep,
    write_csv,
    write_meta,
    write_raw_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationError",
    "ChannelParams",
    "CoverageInstance",
    "EnumerationBudgetError",
    "ExperimentConfig",
    "InstanceError",
    "Scenario",
    "SolveResult",
    "StreamSpec",
    "SweepResult",
    "derive_instance",
    "generate_scenario",
    "greedy_bound",
    "instance_from_dict",
    "load_instance",
    "run_sweep",
    "sample_rates",
    "served",
    "solve_exact",
    "solve_greedy",
    "solve_sc_baseline",
    "write_csv",
    "write_meta",
    "write_raw_csv",
]
