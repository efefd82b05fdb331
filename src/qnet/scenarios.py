"""Serializable experiment descriptions and the built-in example scenarios."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .markov import MarkovChain, validate_chain
from .model import ArrivalProcess, Network, _as_array, validate_arrivals, validate_network
from .policies import PolicySpec


@dataclass
class Scenario:
    name: str
    net: Network
    chain: MarkovChain
    arrivals: ArrivalProcess
    policies: list[PolicySpec]
    slots: int
    replications: int
    seed: int
    q0: np.ndarray | None = None
    region_scale: Fraction = Fraction(1)
    notes: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "network": self.net.to_json(),
            "chain": self.chain.to_json(),
            "arrivals": _arrivals_to_json(self.arrivals),
            "policies": [p.to_json() for p in self.policies],
            "slots": self.slots,
            "replications": self.replications,
            "seed": self.seed,
        }
        if self.q0 is not None:
            out["q0"] = [int(x) for x in self.q0]
        if self.region_scale != 1:
            out["region_scale"] = str(self.region_scale)
        if self.notes:
            out["notes"] = self.notes
        return out


def _arrivals_to_json(ap: ArrivalProcess) -> dict:
    if ap.kind == "constant":
        return {"kind": ap.kind, "value": ap.value.tolist()}
    if ap.kind == "deterministic-periodic":
        return {"kind": ap.kind, "pattern": ap.pattern.tolist()}
    return {"kind": ap.kind, "p": [str(x) for x in ap.p], "batch": ap.batch.tolist()}


# (key, least value, what is expected); seeds feed np.random.SeedSequence,
# which takes nonnegative integers only
RUN_SETTINGS = (("slots", 1, "a positive slot count"),
                ("replications", 1, "a replication count >= 1"),
                ("seed", 0, "an explicit nonnegative integer seed"))


def check_run_settings(raw: dict, prefix: str = "") -> None:
    """Check the run settings `raw` holds, each an integer (not a bool) no
    less than its least value; errors carry the path `prefix + key`."""
    for key, least, what in RUN_SETTINGS:
        if key not in raw:
            continue
        x = raw[key]
        if not isinstance(x, int) or isinstance(x, bool) or x < least:
            raise ValidationError(prefix + key, f"expected {what}, got {x!r}")


def validate_scenario(raw: dict) -> Scenario:
    """Field-by-field validation; errors carry the offending path."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario", f"expected an object, got {raw!r}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("name", "scenario needs a nonempty name")
    if name in (".", "..") or any(ch in name for ch in "/\\\0"):
        raise ValidationError("name", f"{name!r} names output files: it may not be . or .. "
                                      "or hold /, \\ or NUL")
    if "network" not in raw:
        raise ValidationError("network", "missing network block")
    net = validate_network(raw["network"])
    if "chain" not in raw:
        raise ValidationError("chain", "missing chain block")
    chain = validate_chain(raw["chain"])
    if chain.n_s != net.n_s:
        raise ValidationError("chain.P", f"chain has {chain.n_s} states but the network "
                                         f"defines {net.n_s} weight diagonals")
    if "arrivals" not in raw:
        raise ValidationError("arrivals", "missing arrivals block")
    arrivals = validate_arrivals(raw["arrivals"], net.n_q)
    if (arrivals.a_hat > net.a_hat).any():
        i = int(np.argmax(arrivals.a_hat > net.a_hat))
        raise ValidationError(f"arrivals[{i}]", "arrival samples can exceed the network bound a_hat")
    pol_raw = raw.get("policies")
    if not isinstance(pol_raw, list) or not pol_raw:
        raise ValidationError("policies", f"expected a nonempty list of policies, got {pol_raw!r}")
    policies = [PolicySpec.from_json(p) for p in pol_raw]
    for spec in policies:
        spec.check_size(net)
    slots, replications, seed = raw.get("slots"), raw.get("replications", 1), raw.get("seed")
    check_run_settings({"slots": slots, "replications": replications, "seed": seed})
    q0 = None
    if raw.get("q0") is not None:
        q0 = _as_array(raw["q0"], "q0", shape=(net.n_q,), lo=0)
    try:
        region_scale = Fraction(str(raw.get("region_scale", 1)))
    except (ValueError, ZeroDivisionError):
        region_scale = None
    if region_scale is None or region_scale <= 0:
        raise ValidationError("region_scale", f"expected a positive rational number, "
                                              f"got {raw['region_scale']!r}")
    notes = raw.get("notes")
    if notes is not None and not isinstance(notes, str):
        raise ValidationError("notes", f"expected a string, got {notes!r}")
    return Scenario(name=name, net=net, chain=chain, arrivals=arrivals,
                    policies=policies, slots=slots, replications=replications,
                    seed=seed, q0=q0, region_scale=region_scale,
                    notes=notes or "")


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(path, f"malformed JSON ({exc})")
        except UnicodeDecodeError as exc:
            raise ValidationError(path, f"not UTF-8 text ({exc})")
    return validate_scenario(raw)


# ---------------------------------------------------------------------------
# Built-in scenario 1: mobile receiver crossing three access-point sectors.
#
# One source queue feeds three access points over always-available wired
# links; each access point has a wireless link to the receiver that works
# (probability 1) only while the receiver is in its sector, slots [3k, 3k+3).
# A deterministic 10-state chain encodes the schedule, ending in an absorbing
# all-off state.  One packet arrives at the source every second slot.
#
# Reconstruction choices, frozen here because results depend on them:
#   - constituency allows one wired plus one wireless activation per slot;
#   - arrivals land on even slots and become schedulable the next slot;
#   - wired columns are ordered AP3, AP2, AP1 (wireless likewise), so the
#     lexicographic tie-break resolves equal-backlog wired ties toward AP1.
#     Equal-weight ties are common here (all access-point queues start
#     empty), and this ordering makes the myopic scheduler strand packets at
#     sectors the receiver has already left, which is exactly the regime the
#     scenario is meant to exhibit.


def scenario_example1(seed: int = 1) -> Scenario:
    sectors = 3
    slots_per_sector = 3
    n_states = sectors * slots_per_sector + 1   # + absorbing all-off state
    # queues: [source, ap1, ap2, ap3]; columns: wired ap3,ap2,ap1, wireless ap3,ap2,ap1
    R = [
        [-1, -1, -1,  0,  0,  0],
        [ 0,  0,  1,  0,  0, -1],
        [ 0,  1,  0,  0, -1,  0],
        [ 1,  0,  0, -1,  0,  0],
    ]
    C = [
        [1, 1, 1, 0, 0, 0],   # at most one wired feed per slot
        [0, 0, 0, 1, 1, 1],   # at most one wireless drain per slot
    ]
    W = []
    for s in range(n_states):
        sector = s // slots_per_sector if s < sectors * slots_per_sector else -1
        wireless = [1.0 if sector == k else 0.0 for k in (2, 1, 0)]
        W.append([1.0, 1.0, 1.0] + wireless)
    P = np.zeros((n_states, n_states))
    for s in range(n_states - 1):
        P[s, s + 1] = 1.0
    P[n_states - 1, n_states - 1] = 1.0

    net = validate_network({"R": R, "C": C, "c": [1, 1], "W": W, "a_hat": [1, 0, 0, 0]})
    chain = validate_chain({"P": P.tolist(), "s0": 0})
    arrivals = validate_arrivals(
        {"kind": "deterministic-periodic", "pattern": [[1, 0, 0, 0], [0, 0, 0, 0]]}, 4)
    policies = [PolicySpec("MW")] + [PolicySpec("PNC", H) for H in (2, 3, 4, 5)]
    return Scenario(
        name="example1", net=net, chain=chain, arrivals=arrivals,
        policies=policies, slots=9, replications=1, seed=seed,
        notes="mobile receiver crossing three sectors; deterministic schedule",
    )


# ---------------------------------------------------------------------------
# Built-in scenario 2: synchronized queues behind a shared transmission.
#
# Two tracked queues (the destination is a pure sink).  Link 0 transmits
# solo from q1 (success 1/4), link 1 copies a packet from q1 to q2 without
# draining q1 (needs q1 >= 1), link 2 is a synchronized transmission
# draining both queues at once (success 1).  All links are mutually
# exclusive.  Expected per-activation effects are (-1/4, 0), (0, 1), and
# (-1, -1); region queries are posed in units scaled by 4 so the axis
# boundary of the full option set sits at an efflux of 2 per slot.
#
# Arrival-rate test points (scaled units) and where they fall:
#   red   (0.5, 0.25): inside every policy's region;
#   blue  (1.4, 0.1) : outside the myopic region a1 < 1 + 3 a2 / 4, inside
#                      the 3-slot fixed-trajectory region (~5/3 on the axis);
#   green (1.94, 0)  : outside the 3-slot fixed-trajectory region, still
#                      inside the full region a1 < 2.

EXAMPLE2_SCALE = Fraction(4)

EXAMPLE2_POINTS = {
    "red": (Fraction(1, 2), Fraction(1, 4)),
    "blue": (Fraction(7, 5), Fraction(1, 10)),
    "green": (Fraction(97, 50), Fraction(0)),
}


def scenario_example2(point: str | tuple = "red", slots: int = 20000,
                      replications: int = 5, seed: int = 1) -> Scenario:
    if isinstance(point, str):
        if point not in EXAMPLE2_POINTS:
            raise ValidationError("point", f"unknown arrival point {point!r}; "
                                           f"expected one of {sorted(EXAMPLE2_POINTS)}")
        label, scaled = point, EXAMPLE2_POINTS[point]
    else:
        label, scaled = "custom", (Fraction(str(point[0])), Fraction(str(point[1])))
    rates = [x / EXAMPLE2_SCALE for x in scaled]
    if not all(0 <= r <= 1 for r in rates):
        raise ValidationError("point", f"scaled rates {scaled} leave the unit batch range")

    net = validate_network({
        "R": [[-1, 0, -1],
              [ 0, 1, -1]],
        "C": [[1, 1, 1]],
        "c": [1],
        "W": [[0.25, 1.0, 1.0]],
        # the copy link feeds on q1 without draining it
        "S_req": [[0, 1, 0], [0, 0, 0]],
        "a_hat": [1, 1],
    })
    chain = validate_chain({"P": [[1.0]], "s0": 0})
    arrivals = validate_arrivals(
        {"kind": "iid-bernoulli-batch", "p": [str(r) for r in rates], "batch": [1, 1]}, 2)
    policies = [PolicySpec("MW"), PolicySpec("PNC", 2), PolicySpec("PNC", 3),
                PolicySpec("FPNC", 2), PolicySpec("FPNC", 3)]
    return Scenario(
        name=f"example2-{label}", net=net, chain=chain, arrivals=arrivals,
        policies=policies, slots=slots, replications=replications, seed=seed,
        region_scale=EXAMPLE2_SCALE,
        notes=f"synchronized queues, arrival point {label} = "
              f"({float(scaled[0])}, {float(scaled[1])}) in scaled units",
    )


BUILTIN_BUILDERS = {
    "example1": scenario_example1,
    "example2": lambda seed=1: scenario_example2("red", seed=seed),
    "example2-red": lambda seed=1: scenario_example2("red", seed=seed),
    "example2-blue": lambda seed=1: scenario_example2("blue", seed=seed),
    "example2-green": lambda seed=1: scenario_example2("green", seed=seed),
}


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_BUILDERS:
        raise ValidationError("scenario", f"unknown builtin scenario {name!r}; "
                                          f"known: {', '.join(sorted(BUILTIN_BUILDERS))}")
    return BUILTIN_BUILDERS[name]()
