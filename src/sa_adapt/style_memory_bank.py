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

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, StateError
from .style_statistics import ChannelStats, sq_distances, style_vector

MAGIC = b"SABANK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<6sIIIIBQdd")
_MODES = ("train", "tta")
_U32_LIMIT, _U64_LIMIT = 2**32, 2**64  # the file's counter widths


def _is_count(value, low: int, limit: int) -> bool:
    """Whether ``value`` is an integer (Python or numpy) in [low, limit): a
    float such as 2.5 or 2.0 is not, since the file stores counters as
    integers."""
    return isinstance(value, (int, np.integer)) and low <= value < limit


def _record_dtype(channels: int) -> np.dtype:
    """The file layout of one prototype record (see the module docstring)."""
    vector = ("<f8", (channels,))
    return np.dtype(
        [("mean", *vector), ("std", *vector), ("use_count", "<u8"), ("last_update", "<u8")]
    )


@dataclass
class StylePrototype(ChannelStats):
    """One stored style basis: a ChannelStats (holding copies of the caller's
    arrays, so the bank never aliases them) plus usage counters."""

    use_count: int = 1
    last_update: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not _is_count(self.use_count, 1, _U64_LIMIT):
            raise ValueError(f"use_count must be an integer in [1, 2**64), got {self.use_count!r}")
        if not _is_count(self.last_update, 0, _U64_LIMIT):
            raise ValueError(
                f"last_update must be an integer in [0, 2**64), got {self.last_update!r}"
            )
        self.mean = self.mean.copy()
        self.std = self.std.copy()

    @property
    def p_mean(self) -> np.ndarray:
        """Read-only alias of ``mean``."""
        return self.mean

    @property
    def p_std(self) -> np.ndarray:
        """Read-only alias of ``std``."""
        return self.std


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

    def __setattr__(self, name: str, value) -> None:
        """Check ``capacity``, ``step``, ``alpha``, ``momentum`` and ``mode``
        on every assignment, the constructor's included, before the value is
        stored.

        ``capacity`` and ``step`` must be integers in the file's ranges. The
        prototype count must not exceed ``capacity`` once both fields exist.
        The prototypes' counters are checked by their constructor.
        """
        if name == "step" and not _is_count(value, 0, _U64_LIMIT):
            raise ValueError(f"step must be an integer in [0, 2**64), got {value!r}")
        if name == "capacity" and not _is_count(value, 1, _U32_LIMIT):
            raise ValueError(f"capacity must be an integer in [1, 2**32), got {value!r}")
        if name == "alpha" and not 0.0 < value < np.inf:
            raise ValueError("alpha must be positive and finite")
        if name == "momentum" and not 0.0 < value < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        if name == "mode" and value not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {value!r}")
        if name == "capacity" or name == "prototypes":
            state = vars(self) | {name: value}
            if "prototypes" in state and len(state["prototypes"]) > state["capacity"]:
                raise ValueError(
                    f"{len(state['prototypes'])} prototypes exceed capacity {state['capacity']}"
                )
        object.__setattr__(self, name, value)

    def __post_init__(self):
        if any(p.last_update > self.step for p in self.prototypes):
            raise ValueError(f"a prototype's last_update is past step {self.step}")
        if len({p.channels for p in self.prototypes}) > 1:
            raise ValueError("prototypes disagree on the channel count")

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
        p.mean = lam * p.mean + (1.0 - lam) * s.mean
        p.std = lam * p.std + (1.0 - lam) * s.std
        assert np.all(p.std > 0.0)  # convex combination of positive stds
        p.use_count += 1
        p.last_update = self.step
        return UpdateReport("fuse", nearest, d_min=d_min, tau=tau)

    def save(self) -> bytes:
        """Serialize to the versioned binary format documented above."""
        c = self.channels or 0
        mode_code = _MODES.index(self.mode)
        header = _HEADER.pack(
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
        records = np.array(
            [(p.mean, p.std, p.use_count, p.last_update) for p in self.prototypes],
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
            capacity=capacity,
            alpha=alpha,
            momentum=momentum,
            mode=_MODES[mode_code],
            step=step,
            prototypes=prototypes,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
