"""Control policies: max-weight, receding-horizon, fixed-trajectory, baselines.

All policies map the observed (queue vector, chain state) to a feasible
binary control.  `dynamics.run` calls `decide(q, s)` once per slot with q a
tuple of ints, which no policy can alter, and copies the values of the
control returned before the next call, so a policy may rewrite and return
one array every slot.  Ties between cost-equal optima are always broken toward
the lexicographically smallest trajectory, so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .dynamics import check_feasible
from .errors import ValidationError
from .model import (MAX_BINARY_BITS, MAX_CONTROL_BITS, Network, count_listed_controls,
                    enumerate_control_set, queue_need)
# the enumeration oracle is never called here; tracers patch and count it in this module
from .optim import solve_bip, solve_bip_exhaustive  # noqa: F401
from .predictor import build_bip, compile_program

POLICY_KINDS = ("MW", "PNC", "FPNC", "IDLE", "RANDOM")
PREDICTIVE_KINDS = ("PNC", "FPNC")
# linear: the surrogate; quadratic: the exact expected sum of squares.
# Both are solved by the same branch and bound.
OBJECTIVES = ("linear", "quadratic")
# Entries of a PNC/FPNC trajectory memo, one per (q, s), about 240 B each; past
# the limit a new state is solved each time it is met, which changes no decision.
MAX_MEMO = 1 << 16


def _positive_int(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 1


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    horizon: int | None = None
    objective: str = "linear"

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValidationError("policy.kind", f"unknown policy kind {self.kind!r}")
        if self.kind in PREDICTIVE_KINDS:
            if not _positive_int(self.horizon):
                raise ValidationError("policy.H", "predictive policies need an integer "
                                                  f"horizon >= 1, got {self.horizon!r}")
            if self.horizon > MAX_BINARY_BITS:
                raise ValidationError("policy.H", f"horizon {self.horizon} exceeds "
                                                  f"{MAX_BINARY_BITS}: two controls per slot "
                                                  f"would give over 2^{MAX_BINARY_BITS} "
                                                  "trajectories")
        elif self.horizon is not None:
            raise ValidationError("policy.H", f"{self.kind} takes no horizon")
        if self.objective not in OBJECTIVES:
            raise ValidationError("policy.objective", f"unknown objective {self.objective!r}; "
                                                      f"expected one of {', '.join(OBJECTIVES)}")
        if self.objective != "linear" and self.kind not in PREDICTIVE_KINDS:
            raise ValidationError("policy.objective", f"{self.kind} takes no objective")

    def check_size(self, net: Network) -> None:
        """Reject a network of over 24 links or 2^16 controls, which IDLE
        alone does not list, and a horizon whose program searches over 2^24
        trajectories, |V|^H (PNC-H6 on example1 searches 16^6); called before
        any program is built.  V is counted only if 2^n_v or 2^(n_v H) exceeds a bound."""
        if self.kind == "IDLE":
            return
        H = self.horizon or 1
        if net.n_v <= MAX_CONTROL_BITS and net.n_v * H <= MAX_BINARY_BITS:
            return   # 2^n_v controls and 2^(n_v H) trajectories fit
        n = count_listed_controls(net, self.kind)
        if n ** H > 1 << MAX_BINARY_BITS:
            raise ValidationError("policy.H", f"horizon {H} gives {n}^{H} trajectories over "
                                              f"the {n} controls with C v <= c, more than "
                                              f"2^{MAX_BINARY_BITS}")

    @property
    def name(self) -> str:
        if self.kind in PREDICTIVE_KINDS:
            suffix = "" if self.objective == "linear" else f"-{self.objective}"
            return f"{self.kind}-H{self.horizon}{suffix}"
        return self.kind

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.horizon is not None:
            out["H"] = self.horizon
        if self.objective != "linear":
            out["objective"] = self.objective
        return out

    @staticmethod
    def from_json(raw: dict) -> "PolicySpec":
        if not isinstance(raw, dict):
            raise ValidationError("policy", f"expected an object, got {raw!r}")
        kind = raw.get("kind")
        if not isinstance(kind, str):
            raise ValidationError("policy.kind", "missing policy kind")
        kind = kind.upper()
        if "objective" in raw and kind not in PREDICTIVE_KINDS:
            raise ValidationError("policy.objective", f"{kind} takes no objective")
        return PolicySpec(kind=kind, horizon=raw.get("H"),
                          objective=raw.get("objective", "linear"))


class PncPolicy:
    """Receding horizon: re-solves every slot, applies only the first block.

    Trajectories are a pure function of (q, s) and are memoized per (q, s).
    A memo miss builds its decision's program from the program compiled for
    its chain state, on the first miss in that state, and solves it.  The
    trajectory is kept as the program's `controls` at the solved candidate
    indices, one (control, queue need) pair per block, so every decision
    is a read-only row of the compiled control set.
    """

    def __init__(self, net, chain, arrivals, H: int, objective="linear"):
        self.net, self.chain, self.arrivals = net, chain, arrivals
        self.H = H
        self.objective = objective
        self._memo: dict = {}
        self._programs: dict = {}   # chain state -> its compiled program

    def _trajectory(self, q, s) -> tuple:
        key = (tuple(q), int(s))
        traj = self._memo.get(key)
        if traj is None:
            program = self._programs.get(key[1])
            if program is None:
                program = self._programs[key[1]] = compile_program(
                    self.net, self.chain, self.arrivals, key[1], self.H, self.objective)
            sol = solve_bip(build_bip(self.net, self.chain, self.arrivals, q, key[1], self.H,
                                      self.objective, program=program))
            if sol.status != "optimal":
                raise RuntimeError(f"trajectory program unexpectedly {sol.status}")
            traj = tuple(program.controls[i] for i in sol.blocks)
            if len(self._memo) < MAX_MEMO:
                self._memo[key] = traj
        return traj

    def decide(self, q, s) -> np.ndarray:
        return self._trajectory(q, s)[0][0]


class MwPolicy(PncPolicy):
    """Max-weight scheduling: the horizon-1 case of the predictive policy."""

    def __init__(self, net, chain, arrivals):
        super().__init__(net, chain, arrivals, H=1)


def repair_control(net: Network, q, v) -> np.ndarray:
    """Switch off links violating feasibility at the realized state.

    Used by the fixed-trajectory policy when a precomputed block meets a
    shortfall the mean-arrival prediction did not anticipate.  A control
    whose length is not n_v cannot be repaired and raises `ValueError`.
    """
    v = np.asarray(v, dtype=np.int64).copy()
    if v.shape != (net.n_v,):
        raise ValueError(f"control must hold {net.n_v} links, got shape {v.shape}")
    while True:
        res = check_feasible(net, q, v)
        if res.ok:
            return v
        if res.family == "constituency":
            v[(net.C[res.index] > 0) & (v == 1)] = 0
        elif res.family == "positiveness":
            v[(net.R_minus[res.index] < 0) & (v == 1)] = 0
        else:  # binary (an entry other than 0 and 1) or source: drop that link
            v[res.index] = 0


class FpncPolicy(PncPolicy):
    """Fixed-trajectory variant: consumes a whole solved trajectory before
    re-optimizing; infeasible pending blocks are repaired by dropping the
    violating links.

    A solved block is 0/1 and meets C v <= c, so it is feasible exactly
    when q >= its queue need, which the trajectory carries; only a block
    that fails this goes to `repair_control`.  `reset` drops the pending
    blocks, and `dynamics.run` calls it, so a reused policy starts each run
    as a fresh one does.
    """

    def __init__(self, net, chain, arrivals, H: int, objective="linear"):
        super().__init__(net, chain, arrivals, H, objective)
        self.reset()

    def reset(self) -> None:
        self._pending: list[tuple[np.ndarray, list]] = []

    def decide(self, q, s) -> np.ndarray:
        if not self._pending:
            self._pending = list(self._trajectory(q, s))
        v, need = self._pending.pop(0)
        if all(x >= n for x, n in zip(q, need)):
            return v
        return repair_control(self.net, q, v)


class IdlePolicy:
    def __init__(self, net):
        self.net = net

    def decide(self, q, s) -> np.ndarray:
        return np.zeros(self.net.n_v, dtype=np.int64)


class RandomPolicy:
    """Uniform choice among the feasible controls, in lexicographic order;
    owns its rng stream.  The controls already meet C v <= c, so q >= each
    one's queue need decides the rest."""

    def __init__(self, net, rng):
        self.net = net
        self.rng = rng
        self._controls = enumerate_control_set(net)
        self._need = queue_need(net, self._controls)

    def decide(self, q, s) -> np.ndarray:
        feasible = self._controls[(np.asarray(q) >= self._need).all(axis=1)]
        return feasible[int(self.rng.integers(len(feasible)))]


def make_policy(spec: PolicySpec, net, chain, arrivals, policy_rng=None):
    spec.check_size(net)
    if spec.kind == "MW":
        return MwPolicy(net, chain, arrivals)
    if spec.kind == "PNC":
        return PncPolicy(net, chain, arrivals, spec.horizon, objective=spec.objective)
    if spec.kind == "FPNC":
        return FpncPolicy(net, chain, arrivals, spec.horizon, objective=spec.objective)
    if spec.kind == "IDLE":
        return IdlePolicy(net)
    if spec.kind == "RANDOM":
        if policy_rng is None:
            raise ValueError("a RANDOM policy needs policy_rng, its random stream")
        return RandomPolicy(net, policy_rng)
    raise ValidationError("policy.kind", f"unknown policy kind {spec.kind!r}")
