"""Self-organizing memory bank of per-channel style prototypes.

The bank holds at most K (mean, std) prototypes per feature level. Each
incoming style observation either bootstraps a new prototype (bank not yet
full, train mode only), fuses into its nearest prototype by exponential
moving average, or, when the nearest distance exceeds an adaptive
threshold, replaces the least-frequently-used prototype. The threshold is
recomputed per observation as ``tau = (alpha / K) * sum(distances)``.

In ``tta`` mode the bank only ever fuses: the prototype count is frozen
and no replacement can occur, so rare or anomalous styles cannot evict
learned prototypes.

Binary persistence format (version 1, little-endian throughout):

    header  : magic ``SABANK`` (6 bytes), version u32, capacity u32,
              channels u32, prototype count u32, mode u8 (0=train, 1=tta),
              step u64, alpha f64, momentum f64
    records : ``count`` fixed-size records (one numpy record dtype), each
              mean (channels f64), std (channels f64),
              use_count u64, last_update u64

``load(save(bank))`` reproduces the bank bit-exactly, counters included.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, StateError
from .style_statistics import (
    ChannelStats,
    checked_vector,
    sq_distances,
    style_vector,
)

MAGIC = b"SABANK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<6sIIIIBQdd")
_MODES = ("train", "tta")
_U32_LIMIT, _U64_LIMIT = 2**32, 2**64  # the file's counter widths
# A full train bank never replaces at alpha > 1, since its nearest distance
# is at most the mean distance, so this bound costs no behaviour; it keeps
# tau = alpha * mean distance, and its mean over a stream, finite.
ALPHA_LIMIT = 1e6


def _count(name: str, value, low: int, limit: int = _U64_LIMIT):
    """``value``, unless it is not an integer (Python or numpy) in [low,
    limit): then the ValueError naming ``name``. A float such as 2.5 or 2.0
    is not one, since the file stores counters as integers."""
    if not (isinstance(value, (int, np.integer)) and low <= value < limit):
        bits = limit.bit_length() - 1
        raise ValueError(f"{name} must be an integer in [{low}, 2**{bits}), got {value!r}")
    return value


def _record_dtype(channels: int) -> np.dtype:
    """The file layout of one prototype record (see the module docstring)."""
    vector = ("<f8", (channels,))
    return np.dtype(
        [("mean", *vector), ("std", *vector), ("use_count", "<u8"), ("last_update", "<u8")]
    )


@dataclass(eq=False)
class StylePrototype(ChannelStats):
    """One stored style basis: a ChannelStats plus usage counters, a plain value.

    The constructor copies ``mean`` and ``std`` and checks the counters:
    integers in the file's range, ``use_count`` at least 1. A bank checks a
    prototype again when it is built with one and stores copies of its values,
    so changing a prototype never changes a bank.
    """

    use_count: int = 1
    last_update: int = 0

    def __post_init__(self):
        _count("use_count", self.use_count, 1)
        _count("last_update", self.last_update, 0)
        self.mean, self.std = np.split(checked_vector(self), 2)

    p_mean = property(lambda self: self.mean, doc="Read-only alias of ``mean``.")
    p_std = property(lambda self: self.std, doc="Read-only alias of ``std``.")


@dataclass
class UpdateReport:
    """What a single observe() did: which prototype was credited and why."""

    action: str  # "bootstrap" | "fuse" | "replace"
    index: int
    d_min: float | None = None
    tau: float | None = None


class StyleMemoryBank:
    """Capacity-K bank of style prototypes for one feature-pyramid level.

    ``observe`` is a read-modify-write and needs exclusive access;
    ``distances``/``save`` are read-only between updates.

    The bank's state is its fields and three stores: the style matrix, whose
    first ``len(bank)`` rows are the prototypes' ``[mean, std]`` vectors (the
    rest are free), and one use count and one last update per prototype.
    Reading ``prototypes`` builds fresh copies from them. The constructor (or
    ``load``) checks the state once; then it changes only through ``observe``,
    and ``mode`` is the one field a caller may assign. Bootstrap writes the
    next free row (the matrix grows geometrically, at most to ``capacity``);
    replace and fuse write one row in place.
    """

    def __init__(self, capacity=4, alpha=0.7, momentum=0.9, mode="train", step=0, prototypes=()):
        _count("capacity (--k)", capacity, 1, _U32_LIMIT)
        if not 0.0 < alpha < np.inf:
            raise ValueError(f"alpha (--alpha) must be positive and finite, got {alpha!r}")
        if alpha > ALPHA_LIMIT:
            raise ValueError(
                f"alpha (--alpha) must be at most {ALPHA_LIMIT:g}, got {alpha!r}: above 1 a "
                "full bank never replaces, and larger values only push tau toward overflow"
            )
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        self.mode = mode
        step = int(_count("step", step, 0))  # a numpy step would wrap at 2**64
        prototypes = [StylePrototype(p.mean, p.std, p.use_count, p.last_update) for p in prototypes]
        if len(prototypes) > capacity:
            raise ValueError(f"{len(prototypes)} prototypes exceed capacity {capacity}")
        if any(p.last_update > step for p in prototypes):
            raise ValueError(f"a prototype's last_update is past step {step}")
        if len({p.channels for p in prototypes}) > 1:
            raise ValueError("prototypes disagree on the channel count")
        vars(self).update(
            capacity=capacity, alpha=alpha, momentum=momentum, step=step,
            _matrix=np.array([style_vector(p) for p in prototypes]),
            _use=[int(p.use_count) for p in prototypes],
            _last=[int(p.last_update) for p in prototypes],
        )

    def __repr__(self) -> str:
        return (
            f"StyleMemoryBank(capacity={self.capacity!r}, alpha={self.alpha!r}, "
            f"momentum={self.momentum!r}, mode={self.mode!r}, step={self.step!r}, "
            f"prototypes={self.prototypes!r})"
        )

    def __setattr__(self, name: str, value) -> None:
        if name != "mode":
            raise AttributeError(f"{name!r} of a StyleMemoryBank is set when the bank is built")
        if value not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {value!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{name!r} of a StyleMemoryBank is set when the bank is built")

    @property
    def prototypes(self) -> tuple[StylePrototype, ...]:
        """Fresh copies of the stored prototypes, in storage order."""
        c = self.channels
        return tuple(
            StylePrototype(row[:c], row[c:], use, last)
            for row, use, last in zip(self._matrix, self._use, self._last)
        )

    def __reduce__(self):  # copy, deepcopy and pickle go through the file format
        return load, (self.save(),)

    def __len__(self) -> int:
        return len(self._use)

    @property
    def channels(self) -> int | None:
        return self._matrix.shape[1] // 2 if self._use else None

    def _check_channels(self, s: ChannelStats) -> None:
        c = self.channels
        if c is not None and s.channels != c:
            raise ValueError(f"channel mismatch: bank has C={c}, stats have C={s.channels}")

    def vectors(self) -> np.ndarray:
        """A copy of the (K, 2C) style matrix: prototype style vectors in storage order."""
        if not self._use:
            raise StateError("empty bank holds no prototype vectors")
        return self._matrix[: len(self._use)].copy()

    def distances(self, s: ChannelStats) -> np.ndarray:
        """Style distance from ``s`` to every stored prototype, storage order."""
        self._check_channels(s)
        return sq_distances(style_vector(s)[None], self.vectors())[0]

    def observe(self, s: ChannelStats) -> UpdateReport:
        """Absorb one style observation; exactly one prototype is credited.

        Train mode: bootstrap-append until full, then fuse with the nearest
        prototype unless ``d_min > tau``, in which case the LFU prototype
        (ties broken by oldest last_update) is overwritten. TTA mode: fuse
        with the nearest prototype, always; observing an empty tta bank is
        a state error.
        """
        self._check_channels(s)
        use, last, n = self._use, self._last, len(self._use)
        if not n and self.mode != "train":
            raise StateError("observe() on an empty bank in tta mode")
        step = self.step + 1  # a Python int (see __init__), so only the file's limit is left
        if step >= _U64_LIMIT:
            _count("step", step, 0)  # raises the constructor's message
        # Every check runs before ``step`` or a row is written.
        if n < self.capacity and self.mode == "train":
            v = checked_vector(s)
            if n == len(self._matrix):  # no free row: grow geometrically, at most to capacity
                grown = np.empty((min(self.capacity, 2 * n + 1), len(v)))
                grown[:n] = self._matrix.reshape(n, len(v))  # an empty bank's matrix is (0,)
                self.__dict__["_matrix"] = grown
            self.__dict__["step"] = step
            self._matrix[n] = v
            use.append(1)
            last.append(step)
            return UpdateReport("bootstrap", n)

        if s.mean.ndim != 1 or np.shape(s.std) != s.mean.shape:
            checked_vector(s)  # raises the constructor's error before style_vector misreads s
        v = style_vector(s)
        d = self._matrix[:n] - v  # the bits of ``sq_distances(v[None], vectors)[0]``
        np.square(d, out=d)
        d = d.sum(axis=1)
        tau = float(self.alpha / self.capacity * d.sum())
        # A finite tau makes every distance, so every entry of v, finite; the stds'
        # sign is left.
        if not (math.isfinite(tau) and v[len(v) // 2 :].min() > 0.0):
            checked_vector(s)  # raises the constructor's error, unless tau overflowed
        nearest = int(d.argmin())
        d_min = float(d[nearest])

        if d_min > tau and self.mode == "train":
            victim = min(range(n), key=lambda i: (use[i], last[i]))
            self.__dict__["step"] = step
            self._matrix[victim] = v
            use[victim], last[victim] = 1, step
            return UpdateReport("replace", victim, d_min=d_min, tau=tau)

        count = _count("use_count", use[nearest] + 1, 1)  # before ``step`` is written
        self.__dict__["step"] = step
        row, lam = self._matrix[nearest], self.momentum
        row *= lam  # the bits of ``lam * p.mean + (1 - lam) * s.mean``, and of std
        row += (1.0 - lam) * v
        use[nearest], last[nearest] = count, step
        return UpdateReport("fuse", nearest, d_min=d_min, tau=tau)

    def save(self) -> bytes:
        """Serialize to the versioned binary format documented above."""
        c = self.channels or 0
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.capacity, c, len(self),
            _MODES.index(self.mode), self.step, self.alpha, self.momentum,
        )
        records = np.array(
            [(row[:c], row[c:], u, t) for row, u, t in zip(self._matrix, self._use, self._last)],
            dtype=_record_dtype(c),
        )
        return header + records.tobytes()


def load(blob: bytes) -> StyleMemoryBank:
    """Rebuild a bank from :meth:`StyleMemoryBank.save` output.

    Checks only the file format itself: header length, magic, version, mode
    code, no channels for an empty bank, and the exact byte length. Every
    rule on the values (capacity, hyperparameters, counters, statistics)
    belongs to the StyleMemoryBank and StylePrototype constructors, whose
    ValueError becomes FormatError here; a malformed blob never yields a
    partially-built bank.
    """
    if len(blob) < _HEADER.size:
        raise FormatError("bank blob shorter than header")
    magic, version, capacity, channels, count, mode_code, step, alpha, momentum = (
        _HEADER.unpack_from(blob, 0)
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if mode_code not in (0, 1):
        raise FormatError(f"unknown mode code {mode_code}")
    if (channels == 0) != (count == 0):
        raise FormatError(f"{count} prototypes of {channels} channels")
    # Checked before the record dtype is built, so a hostile ``channels``
    # never reaches numpy: a record is two C-vectors of f64 and two u64.
    expected = _HEADER.size + count * (16 * channels + 16)
    if len(blob) != expected:
        raise FormatError(f"bank blob has {len(blob)} bytes, expected {expected}")
    records = np.frombuffer(
        blob, dtype=_record_dtype(channels), count=count, offset=_HEADER.size
    )
    try:
        prototypes = [
            StylePrototype(r["mean"], r["std"], int(r["use_count"]), int(r["last_update"]))
            for r in records
        ]
        return StyleMemoryBank(
            capacity=capacity, alpha=alpha, momentum=momentum, mode=_MODES[mode_code],
            step=step, prototypes=prototypes,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
