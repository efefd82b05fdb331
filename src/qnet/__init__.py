"""Discrete-time queueing-network control toolkit.

Networks evolve as q' = q + R M v + a with Markov-modulated link-success
matrices; controls are binary and linearly constrained.  The package
implements the receding-horizon scheduling policy family (with max-weight as
its one-step case), in-repo binary/linear-program solvers, stability-region
analysis, and a deterministic experiment harness.
"""

from .dynamics import (Feasibility, RngStreams, StepRecord, Trace,
                       check_feasible, make_streams, run, trace_to_csv)
from .errors import (EnumerationLimitError, PolicyContractError,
                     SolverStallError, ValidationError)
from .harness import ExperimentResult, RunResult, region_rows, run_experiment
from .markov import MarkovChain, propagate, sample_next, stationary, validate_chain
from .model import (ArrivalProcess, Network, enumerate_control_set,
                    validate_arrivals, validate_network)
from .optim import Bip, BipSolution, LpProblem, LpSolution, solve_bip, solve_lp
from .policies import (FpncPolicy, IdlePolicy, MwPolicy, PncPolicy, PolicySpec,
                       RandomPolicy, make_policy)
from .predictor import build_bip, build_constraints
from .scenarios import (Scenario, builtin_scenario, load_scenario,
                        scenario_example1, scenario_example2, validate_scenario)
from .stability import (RegionQuery, RegionResult, StabilityVerdict,
                        assess_stability, mw_accessible_options,
                        region_membership, region_slice)

__version__ = "0.1.0"
