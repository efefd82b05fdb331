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


def _as_array(raw, path: str, dtype=np.int64, shape=None, lo=None, hi=None) -> np.ndarray:
    """`raw` as an array of `dtype`, its entries, shape and range checked.

    Entries must be numbers, not bools or strings, and an integer field takes
    integral values only: 1.5 or true is rejected, never cast to 1.  `shape`
    gives each axis's length, None matching any.  With `lo` given, every entry
    lies in [lo, hi], where no `hi` means no upper bound; NaN lies outside.
    An entry that fails is named by its index, as path[i][j].
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
            raise ValidationError(_entry_path(path, idx), f"expected {kind}, got {x!r}")
    if shape is not None and (arr.ndim != len(shape) or any(
            n is not None and n != m for n, m in zip(shape, arr.shape))):
        want = ", ".join("*" if n is None else str(n) for n in shape)
        raise ValidationError(path, f"expected shape ({want}), "
                                    f"got ({', '.join(map(str, arr.shape))})")
    if lo is not None:
        top = np.inf if hi is None else hi
        bad = np.argwhere(~((arr >= lo) & (arr <= top)))   # NaN fails both comparisons
        if len(bad):
            idx = tuple(bad[0])
            raise ValidationError(_entry_path(path, idx),
                                  f"entry {arr[idx]} outside [{lo}, {top}]")
    return arr


def _entry_path(path: str, idx: tuple) -> str:
    return path + "".join(f"[{i}]" for i in idx)


def validate_network(raw: dict) -> Network:
    """Check a raw network description and return the immutable model.

    Required keys: R, C, c, W.  Optional: S_req (extends the default derived
    from R's negative part), a_hat (default all-ones).
    """
    if not isinstance(raw, dict):
        raise ValidationError("network", f"expected an object, got {raw!r}")
    if "R" not in raw:
        raise ValidationError("network.R", "missing routing matrix")
    R = _as_array(raw["R"], "network.R", shape=(None, None), lo=-1, hi=1)
    n_q, n_v = R.shape
    if n_q == 0 or n_v == 0:
        raise ValidationError("network.R", "network needs at least one queue and one link")
    for j in range(n_v):
        if not R[:, j].any():
            warnings.warn(f"link {j} has an all-zero column (no effect on any queue)")

    C = _as_array(raw.get("C", np.zeros((0, n_v))), "network.C", shape=(None, n_v), lo=0)
    c = _as_array(raw.get("c", np.zeros(C.shape[0])), "network.c", shape=(C.shape[0],), lo=0)

    W_raw = raw.get("W")
    if W_raw is None:
        raise ValidationError("network.W", "missing link success probabilities")
    W = _as_array(W_raw, "network.W", np.float64)
    W = _as_array(W[None, :] if W.ndim == 1 else W, "network.W", np.float64,
                  shape=(None, n_v), lo=0, hi=1)
    n_s = W.shape[0]

    R_minus = np.minimum(R, 0)
    S_req = (R_minus < 0).astype(np.int64)
    if raw.get("S_req") is not None:
        extra = _as_array(raw["S_req"], "network.S_req", shape=(n_q, n_v), lo=0, hi=1)
        # drain requirements implied by R are not overridable
        S_req = np.maximum(S_req, extra)

    a_hat = _as_array(raw.get("a_hat", np.ones(n_q)), "network.a_hat", shape=(n_q,), lo=0)

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
    if isinstance(x, np.generic):
        # a Python number, so that repr gives its decimal digits and a
        # Fraction never keeps an np.int64 numerator, which overflows
        x = x.item()
    if isinstance(x, bool):
        raise ValidationError(path, f"expected an exact rate, got {x!r}")
    if isinstance(x, (list, tuple)) and len(x) == 2:
        # integral entries: [1.5, 2] fails at [0]
        x = tuple(int(v) for v in _as_array(x, path, shape=(2,)))
    try:
        if isinstance(x, tuple):
            return Fraction(*x)
        # a float is exact via its decimal repr, so 0.45 means 9/20, not the
        # nearest binary float
        return Fraction(repr(x) if isinstance(x, float) else x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(path, f"cannot interpret {x!r} as an exact rate ({exc})")


def validate_arrivals(raw: dict, n_q: int) -> ArrivalProcess:
    if not isinstance(raw, dict):
        raise ValidationError("arrivals", f"expected an object, got {raw!r}")
    kind = raw.get("kind")
    if kind == "constant":
        value = _as_array(raw.get("value"), "arrivals.value", shape=(n_q,), lo=0)
        rate = tuple(Fraction(int(x)) for x in value)
        return ArrivalProcess(kind=kind, n_q=n_q, value=value, rate=rate, a_hat=value.copy())
    if kind == "deterministic-periodic":
        pattern = _as_array(raw.get("pattern"), "arrivals.pattern", shape=(None, n_q), lo=0)
        if len(pattern) == 0:
            raise ValidationError("arrivals.pattern", "expected at least one slot of arrivals")
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
        batch = _as_array(raw.get("batch", np.ones(n_q)), "arrivals.batch", shape=(n_q,), lo=0)
        rate = tuple(p[i] * int(batch[i]) for i in range(n_q))
        a_hat = np.where([pi > 0 for pi in p], batch, 0).astype(np.int64)
        return ArrivalProcess(kind=kind, n_q=n_q, p=p, batch=batch, rate=rate, a_hat=a_hat)
    raise ValidationError("arrivals.kind", f"unknown arrival kind {kind!r}")
