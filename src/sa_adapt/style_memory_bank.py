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
    records : ``count`` prototype records, each
              p_mean (channels f64), p_std (channels f64),
              use_count u64, last_update u64

``load(save(bank))`` reproduces the bank bit-exactly, counters included.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, StateError
from .style_statistics import ChannelStats, sq_distances, style_vector
from .tensor_core import DTYPE, require_finite

MAGIC = b"SABANK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<6sIIIIBQdd")
_COUNTERS = struct.Struct("<QQ")
_MODES = ("train", "tta")


@dataclass
class StylePrototype:
    """One stored style basis: per-channel mean/std plus usage counters."""

    p_mean: np.ndarray
    p_std: np.ndarray
    use_count: int = 1
    last_update: int = 0

    def __post_init__(self):
        self.p_mean = np.asarray(self.p_mean, dtype=DTYPE).copy()
        self.p_std = np.asarray(self.p_std, dtype=DTYPE).copy()
        require_finite(self.p_mean, "prototype mean")
        require_finite(self.p_std, "prototype std")
        if np.any(self.p_std <= 0.0):
            raise ValueError("prototype stds must be strictly positive")

    @property
    def channels(self) -> int:
        return self.p_mean.shape[0]


@dataclass
class UpdateReport:
    """What a single observe() did: which prototype was credited and why."""

    action: str  # "bootstrap" | "fuse" | "replace"
    index: int
    d_min: float | None = None
    tau: float | None = None


@dataclass
class StyleMemoryBank:
    """Capacity-K bank of style prototypes for one feature-pyramid level.

    ``observe`` is a read-modify-write and needs exclusive access;
    ``distances``/``save`` are read-only between updates.
    """

    capacity: int = 4
    alpha: float = 0.7
    momentum: float = 0.9
    mode: str = "train"
    step: int = 0
    prototypes: list[StylePrototype] = field(default_factory=list)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be a positive integer")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if len(self.prototypes) > self.capacity:
            raise ValueError("more prototypes than capacity")

    def __len__(self) -> int:
        return len(self.prototypes)

    @property
    def is_full(self) -> bool:
        return len(self.prototypes) >= self.capacity

    @property
    def channels(self) -> int | None:
        return self.prototypes[0].channels if self.prototypes else None

    def _check_channels(self, s: ChannelStats) -> None:
        c = self.channels
        if c is not None and s.channels != c:
            raise ValueError(f"channel mismatch: bank has C={c}, stats have C={s.channels}")

    def vectors(self) -> np.ndarray:
        """The prototypes' style vectors stacked in storage order, shape (K, 2C)."""
        if not self.prototypes:
            raise StateError("empty bank holds no prototype vectors")
        return np.stack([style_vector(p) for p in self.prototypes])

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
        if not self.prototypes and self.mode != "train":
            raise StateError("observe() on an empty bank in tta mode")
        self.step += 1
        if not self.is_full and self.mode == "train":
            self.prototypes.append(
                StylePrototype(s.mean, s.std, use_count=1, last_update=self.step)
            )
            return UpdateReport("bootstrap", len(self.prototypes) - 1)

        d = self.distances(s)
        tau = float(self.alpha / self.capacity * np.sum(d))
        nearest = int(np.argmin(d))
        d_min = float(d[nearest])

        if d_min > tau and self.mode == "train":
            victim = min(
                range(len(self.prototypes)),
                key=lambda i: (self.prototypes[i].use_count, self.prototypes[i].last_update),
            )
            self.prototypes[victim] = StylePrototype(
                s.mean, s.std, use_count=1, last_update=self.step
            )
            return UpdateReport("replace", victim, d_min=d_min, tau=tau)

        p = self.prototypes[nearest]
        lam = self.momentum
        p.p_mean = lam * p.p_mean + (1.0 - lam) * s.mean
        p.p_std = lam * p.p_std + (1.0 - lam) * s.std
        assert np.all(p.p_std > 0.0)  # convex combination of positive stds
        p.use_count += 1
        p.last_update = self.step
        return UpdateReport("fuse", nearest, d_min=d_min, tau=tau)

    def save(self) -> bytes:
        """Serialize to the versioned binary format documented above."""
        c = self.channels or 0
        mode_code = _MODES.index(self.mode)
        out = bytearray(
            _HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                self.capacity,
                c,
                len(self.prototypes),
                mode_code,
                self.step,
                self.alpha,
                self.momentum,
            )
        )
        for p in self.prototypes:
            out += np.ascontiguousarray(p.p_mean, dtype="<f8").tobytes()
            out += np.ascontiguousarray(p.p_std, dtype="<f8").tobytes()
            out += _COUNTERS.pack(p.use_count, p.last_update)
        return bytes(out)


def load(blob: bytes) -> StyleMemoryBank:
    """Rebuild a bank from :meth:`StyleMemoryBank.save` output.

    Raises FormatError on bad magic, unsupported version, inconsistent
    lengths or counters, or non-finite / non-positive prototype values; a
    malformed blob never yields a partially-built bank.
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
    if count > capacity:
        raise FormatError(f"prototype count {count} exceeds capacity {capacity}")
    if not np.isfinite(alpha) or not np.isfinite(momentum):
        raise FormatError("non-finite hyperparameters in header")
    if (channels == 0) != (count == 0):
        raise FormatError(f"{count} prototypes of {channels} channels")
    record = 16 * channels + _COUNTERS.size
    expected = _HEADER.size + count * record
    if len(blob) != expected:
        raise FormatError(f"bank blob has {len(blob)} bytes, expected {expected}")

    prototypes = []
    off = _HEADER.size
    for _ in range(count):
        p_mean = np.frombuffer(blob, dtype="<f8", count=channels, offset=off)
        off += 8 * channels
        p_std = np.frombuffer(blob, dtype="<f8", count=channels, offset=off)
        off += 8 * channels
        use_count, last_update = _COUNTERS.unpack_from(blob, off)
        off += _COUNTERS.size
        if not (np.all(np.isfinite(p_mean)) and np.all(np.isfinite(p_std))):
            raise FormatError("non-finite prototype values")
        if np.any(p_std <= 0.0):
            raise FormatError("non-positive prototype std")
        if use_count == 0 or last_update > step:
            raise FormatError(f"inconsistent counters use={use_count} last={last_update}")
        prototypes.append(
            StylePrototype(p_mean, p_std, use_count=use_count, last_update=last_update)
        )
    try:
        return StyleMemoryBank(
            capacity=capacity,
            alpha=alpha,
            momentum=momentum,
            mode=_MODES[mode_code],
            step=step,
            prototypes=prototypes,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
