"""Static queueing-network model: routing, constituency, link-success matrices.

The network evolves as  q' = q + R M v + a  where R holds one link per
column, M is a diagonal 0/1 success matrix drawn per slot, v is the binary
control and a the arrival vector.  This module owns the static description
and its validation; the stochastic evolution lives in `dynamics`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import ValidationError
from .optim import binary_chunks


@dataclass(frozen=True)
class Network:
    """Validated static model. Immutable; safe to share between runs."""

    n_q: int
    n_v: int
    n_s: int
    R: np.ndarray          # n_q x n_v, entries in {-1, 0, +1}
    R_minus: np.ndarray    # n_q x n_v, entries in {-1, 0}
    C: np.ndarray          # n_c x n_v, nonnegative integers
    c: np.ndarray          # n_c, nonnegative integers
    W: np.ndarray          # n_s x n_v, per-state diagonal success probabilities
    S_req: np.ndarray      # n_q x n_v, 0/1 source requirements for activation
    a_hat: np.ndarray      # n_q, elementwise arrival upper bound
    conventional: bool
    # per-link packet count leaving the system on a successful firing
    # (number of -1 entries for columns with no +1 entry, else 0)
    delivery: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for name in ("R", "R_minus", "C", "c", "W", "S_req", "a_hat", "delivery"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)
        # `dynamics.step`'s memo of the controls it has admitted, keyed by
        # their bytes.  A cache, not a field: equality, `to_json` and
        # `dataclasses.replace` ignore it, and a replaced network starts empty.
        object.__setattr__(self, "_admitted", {})

    def to_json(self) -> dict:
        """Normalized description, re-validatable by `validate_network`."""
        return {
            "R": self.R.tolist(),
            "C": self.C.tolist(),
            "c": self.c.tolist(),
            "W": self.W.tolist(),
            "S_req": self.S_req.tolist(),
            "a_hat": self.a_hat.tolist(),
        }


def _as_array(raw, path: str, dtype=np.int64) -> np.ndarray:
    """`raw` as an array of `dtype`, its entries checked before the cast.

    Entries must be numbers, not bools or strings, and an integer field takes
    integral values only: 1.5 or true is rejected, never cast to 1.
    """
    try:
        arr = np.asarray(raw, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(path, f"expected numeric entries ({exc})") from None
    integral = np.issubdtype(arr.dtype, np.integer)
    for idx, x in np.ndenumerate(np.asarray(raw, dtype=object)):
        if (isinstance(x, (bool, np.bool_)) or not isinstance(x, Real)
                or integral and not float(x).is_integer()):
            kind = "an integer" if integral else "a number"
            raise ValidationError(path + "".join(f"[{i}]" for i in idx),
                                  f"expected {kind}, got {x!r}")
    return arr


def _as_int_matrix(raw, path: str) -> np.ndarray:
    arr = _as_array(raw, path)
    if arr.ndim != 2:
        raise ValidationError(path, f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


def validate_network(raw: dict) -> Network:
    """Check a raw network description and return the immutable model.

    Required keys: R, C, c, W.  Optional: S_req (extends the default derived
    from R's negative part), a_hat (default all-ones).
    """
    if not isinstance(raw, dict):
        raise ValidationError("network", f"expected an object, got {raw!r}")
    if "R" not in raw:
        raise ValidationError("network.R", "missing routing matrix")
    R = _as_int_matrix(raw["R"], "network.R")
    n_q, n_v = R.shape
    if n_q == 0 or n_v == 0:
        raise ValidationError("network.R", "network needs at least one queue and one link")
    bad = np.argwhere(~np.isin(R, (-1, 0, 1)))
    if bad.size:
        i, j = bad[0]
        raise ValidationError(f"network.R[{i}][{j}]", f"entry {R[i, j]} outside {{-1, 0, +1}}")
    for j in range(n_v):
        if not R[:, j].any():
            warnings.warn(f"link {j} has an all-zero column (no effect on any queue)")

    C = _as_int_matrix(raw.get("C", np.zeros((0, n_v))), "network.C")
    if C.shape[1] != n_v:
        raise ValidationError("network.C", f"expected {n_v} columns, got {C.shape[1]}")
    if (C < 0).any():
        i, j = np.argwhere(C < 0)[0]
        raise ValidationError(f"network.C[{i}][{j}]", "constituency coefficients must be nonnegative")
    c = _as_array(raw.get("c", np.zeros(C.shape[0])), "network.c")
    if c.shape != (C.shape[0],):
        raise ValidationError("network.c", f"expected length {C.shape[0]}, got {c.shape}")
    if (c < 0).any():
        raise ValidationError(f"network.c[{int(np.argwhere(c < 0)[0])}]", "bounds must be nonnegative")

    W_raw = raw.get("W")
    if W_raw is None:
        raise ValidationError("network.W", "missing link success probabilities")
    W = _as_array(W_raw, "network.W", np.float64)
    if W.ndim == 1:
        W = W[None, :]
    if W.ndim != 2 or W.shape[1] != n_v:
        raise ValidationError("network.W", f"expected n_s x {n_v} diagonals, got shape {W.shape}")
    bad = np.argwhere(~((W >= 0.0) & (W <= 1.0)))   # NaN fails both comparisons
    if bad.size:
        s, j = bad[0]
        raise ValidationError(f"network.W[{s}][{j}]", f"probability {W[s, j]} outside [0, 1]")
    n_s = W.shape[0]

    R_minus = np.minimum(R, 0)
    S_req = (R_minus < 0).astype(np.int64)
    if raw.get("S_req") is not None:
        extra = _as_int_matrix(raw["S_req"], "network.S_req")
        if extra.shape != (n_q, n_v):
            raise ValidationError("network.S_req", f"expected shape {(n_q, n_v)}, got {extra.shape}")
        if not np.isin(extra, (0, 1)).all():
            raise ValidationError("network.S_req", "entries must be 0/1")
        # drain requirements implied by R are not overridable
        S_req = np.maximum(S_req, extra)

    a_hat = _as_array(raw.get("a_hat", np.ones(n_q)), "network.a_hat")
    if a_hat.shape != (n_q,):
        raise ValidationError("network.a_hat", f"expected length {n_q}, got {a_hat.shape}")
    if (a_hat < 0).any():
        raise ValidationError("network.a_hat", "arrival bounds must be nonnegative")

    neg_counts = (R == -1).sum(axis=0)
    pos_counts = (R == 1).sum(axis=0)
    conventional = bool(((neg_counts == 1) & (pos_counts <= 1)).all())

    delivery = np.where(pos_counts == 0, neg_counts, 0).astype(np.int64)

    return Network(
        n_q=n_q, n_v=n_v, n_s=n_s,
        R=R, R_minus=R_minus, C=C, c=c, W=W,
        S_req=S_req, a_hat=a_hat, conventional=conventional,
        delivery=delivery,
    )


def _control_chunks(net: Network):
    """The binary controls v with C v <= c, lexicographically sorted, in chunks."""
    for cand in binary_chunks(net.n_v, 1 << 16):
        cand = cand.astype(np.int64)
        yield cand[(cand @ net.C.T <= net.c).all(axis=1)]


def enumerate_control_set(net: Network) -> np.ndarray:
    """All binary controls v with C v <= c, lexicographically sorted.

    Returns an array of shape (num_controls, n_v).
    """
    chunks = list(_control_chunks(net))
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)


def count_controls(net: Network) -> int:
    """|V|, the number of binary controls with C v <= c, one chunk in memory at a time."""
    return sum(map(len, _control_chunks(net)))


# ---------------------------------------------------------------------------
# Arrival processes


@dataclass(frozen=True)
class ArrivalProcess:
    """Exogenous packet arrivals.

    kinds:
      constant            -- value[i] packets at queue i every slot
      deterministic-periodic -- pattern[t % len] packets in slot t
      iid-bernoulli-batch -- queue i independently receives batch[i] packets
                             with probability p[i] each slot
    Mean rates are kept as exact fractions so region-membership tests stay
    exact at desk scale.
    """

    kind: str
    n_q: int
    value: np.ndarray | None = None          # constant
    pattern: np.ndarray | None = None        # deterministic-periodic, shape (period, n_q)
    p: tuple[Fraction, ...] | None = None    # iid-bernoulli-batch
    batch: np.ndarray | None = None
    rate: tuple[Fraction, ...] = ()          # mean arrivals per slot, exact
    a_hat: np.ndarray = None                 # elementwise sample bound

    def sample_slots(self, t: int, slots: int, rng) -> np.ndarray:
        """Arrivals of slots t .. t + slots - 1, one row per slot.

        iid-bernoulli-batch draws one uniform per queue per slot, row by row,
        so the stream stays aligned across policies regardless of decisions
        and one call for many slots equals one call per slot.  The other
        kinds draw nothing.
        """
        if self.kind == "constant":
            return np.tile(self.value, (slots, 1))
        if self.kind == "deterministic-periodic":
            return self.pattern[np.arange(t, t + slots) % len(self.pattern)]
        u = rng.random((slots, self.n_q))
        return (u < [float(pi) for pi in self.p]) * self.batch

    def sample(self, t: int, rng) -> np.ndarray:
        """Arrivals of slot t."""
        return self.sample_slots(t, 1, rng)[0]

    def rate_float(self) -> np.ndarray:
        return np.array([float(r) for r in self.rate])

    def mean(self, t: int) -> np.ndarray:
        """Expected arrivals in slot t: the mean rate, or pattern row t % period."""
        if self.kind == "deterministic-periodic":
            return self.pattern[t % len(self.pattern)].astype(np.float64)
        return self.rate_float()

    def support(self, t: int) -> list[tuple[np.ndarray, Fraction]]:
        """Finite per-slot outcome distribution, for exact expectations."""
        if self.kind == "constant":
            return [(self.value.copy(), Fraction(1))]
        if self.kind == "deterministic-periodic":
            return [(self.pattern[t % len(self.pattern)].copy(), Fraction(1))]
        outcomes = [(np.zeros(self.n_q, dtype=np.int64), Fraction(1))]
        for i in range(self.n_q):
            p = self.p[i]
            new = []
            for vec, prob in outcomes:
                if p < 1:
                    new.append((vec, prob * (1 - p)))
                if p > 0:
                    hit = vec.copy()
                    hit[i] += self.batch[i]
                    new.append((hit, prob * p))
            outcomes = new
        return outcomes


def _as_fraction(x, path: str) -> Fraction:
    if isinstance(x, (bool, np.bool_)):
        raise ValidationError(path, f"expected an exact rate, got {x!r}")
    if isinstance(x, (list, tuple)) and len(x) == 2:
        x = tuple(int(v) for v in _as_array(x, path))   # integral entries: [1.5, 2] fails at [0]
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, tuple):
            return Fraction(*x)
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, float):
            # exact via the decimal repr, so "0.45" means 9/20, not the
            # nearest binary float
            return Fraction(repr(x))
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(path, f"cannot interpret {x!r} as an exact rate ({exc})")


def validate_arrivals(raw: dict, n_q: int) -> ArrivalProcess:
    if not isinstance(raw, dict):
        raise ValidationError("arrivals", f"expected an object, got {raw!r}")
    kind = raw.get("kind")
    if kind == "constant":
        value = _as_array(raw.get("value"), "arrivals.value")
        if value.shape != (n_q,):
            raise ValidationError("arrivals.value", f"expected length {n_q}")
        if (value < 0).any():
            raise ValidationError("arrivals.value", "arrivals must be nonnegative")
        rate = tuple(Fraction(int(x)) for x in value)
        return ArrivalProcess(kind=kind, n_q=n_q, value=value, rate=rate, a_hat=value.copy())
    if kind == "deterministic-periodic":
        pattern = _as_array(raw.get("pattern"), "arrivals.pattern")
        if pattern.ndim != 2 or pattern.shape[1] != n_q or len(pattern) == 0:
            raise ValidationError("arrivals.pattern", f"expected a nonempty (period, {n_q}) matrix")
        if (pattern < 0).any():
            raise ValidationError("arrivals.pattern", "arrivals must be nonnegative")
        rate = tuple(Fraction(int(s), len(pattern)) for s in pattern.sum(axis=0))
        return ArrivalProcess(kind=kind, n_q=n_q, pattern=pattern, rate=rate,
                              a_hat=pattern.max(axis=0))
    if kind == "iid-bernoulli-batch":
        p_raw = raw.get("p")
        if not isinstance(p_raw, (list, tuple)) or len(p_raw) != n_q:
            raise ValidationError("arrivals.p", f"expected {n_q} probabilities")
        p = tuple(_as_fraction(x, f"arrivals.p[{i}]") for i, x in enumerate(p_raw))
        for i, pi in enumerate(p):
            if not 0 <= pi <= 1:
                raise ValidationError(f"arrivals.p[{i}]", f"probability {pi} outside [0, 1]")
        batch = _as_array(raw.get("batch", np.ones(n_q)), "arrivals.batch")
        if batch.shape != (n_q,):
            raise ValidationError("arrivals.batch", f"expected length {n_q}")
        if (batch < 0).any():
            raise ValidationError("arrivals.batch", "batch sizes must be nonnegative")
        rate = tuple(p[i] * int(batch[i]) for i in range(n_q))
        a_hat = np.where([pi > 0 for pi in p], batch, 0).astype(np.int64)
        return ArrivalProcess(kind=kind, n_q=n_q, p=p, batch=batch, rate=rate, a_hat=a_hat)
    raise ValidationError("arrivals.kind", f"unknown arrival kind {kind!r}")
