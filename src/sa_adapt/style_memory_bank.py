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
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, StateError
from .style_statistics import ChannelStats, check_moment, sq_distances, style_vector
from .tensor_core import DTYPE

MAGIC = b"SABANK"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<6sIIIIBQdd")
_MODES = ("train", "tta")
_U32_LIMIT, _U64_LIMIT = 2**32, 2**64  # the file's counter widths
# A full train bank never replaces at alpha > 1, since its nearest distance
# is at most the mean distance, so this bound costs no behaviour; it keeps
# tau = alpha * mean distance, and its mean over a stream, finite.
ALPHA_LIMIT = 1e6


def _is_count(value, low: int, limit: int) -> bool:
    """Whether ``value`` is an integer (Python or numpy) in [low, limit): a
    float such as 2.5 or 2.0 is not, since the file stores counters as
    integers."""
    return isinstance(value, (int, np.integer)) and low <= value < limit


def _check_updates(prototypes, step) -> None:
    if any(p.last_update > step for p in prototypes):
        raise ValueError(f"a prototype's last_update is past step {step}")


def _record_dtype(channels: int) -> np.dtype:
    """The file layout of one prototype record (see the module docstring)."""
    vector = ("<f8", (channels,))
    return np.dtype(
        [("mean", *vector), ("std", *vector), ("use_count", "<u8"), ("last_update", "<u8")]
    )


@dataclass
class StylePrototype(ChannelStats):
    """One stored style basis: a ChannelStats plus usage counters; ``mean`` and
    ``std`` are views of one (2C,) row, its own copy or its bank's matrix row.

    Whether ``last_update`` is past its bank's ``step`` is checked by the bank
    (a prototype does not know its bank), on assignment and in ``save``.
    """

    use_count: int = 1
    last_update: int = 0

    def __post_init__(self):
        super().__post_init__()
        self._row = style_vector(self)

    def __setattr__(self, name: str, value) -> None:
        """Check the counters on every assignment, the constructor's included:
        integers in the file's range, ``use_count`` at least 1. Assigning
        ``_row`` makes it the storage of ``mean`` and ``std``; assigning either
        of those then checks the value as the constructor does and writes it
        into that row."""
        if name == "use_count" and not _is_count(value, 1, _U64_LIMIT):
            raise ValueError(f"use_count must be an integer in [1, 2**64), got {value!r}")
        if name == "last_update" and not _is_count(value, 0, _U64_LIMIT):
            raise ValueError(f"last_update must be an integer in [0, 2**64), got {value!r}")
        if name == "_row":
            c = len(value) // 2
            vars(self).update(_row=value, mean=value[:c], std=value[c:])
        elif name in ("mean", "std") and "_row" in vars(self):
            value = np.asarray(value, dtype=DTYPE)
            check_moment(name, value)
            getattr(self, name)[...] = value
        else:
            object.__setattr__(self, name, value)

    p_mean = property(lambda self: self.mean, doc="Read-only alias of ``mean``.")
    p_std = property(lambda self: self.std, doc="Read-only alias of ``std``.")


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

    The (K, 2C) style matrix is the storage: prototype i's ``mean`` and ``std``
    are views of row i. Each assignment of ``prototypes`` (bootstrap's too)
    builds it once, copying a prototype bound to another matrix or listed
    twice; replace and fuse write one row in place.
    """

    capacity: int = 4
    alpha: float = 0.7
    momentum: float = 0.9
    mode: str = "train"
    step: int = 0
    prototypes: tuple[StylePrototype, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        """Check every field on every assignment, the constructor's included,
        before the value is stored: ``capacity`` and ``step`` are integers in
        the file's ranges, ``alpha`` is at most ``ALPHA_LIMIT``, and the
        prototypes, at most ``capacity``, agree on the channel count and are
        not updated past ``step``, whether ``prototypes`` or ``step`` is
        assigned (their counters are checked on their own assignment).
        """
        if name == "step":
            if not _is_count(value, 0, _U64_LIMIT):
                raise ValueError(f"step must be an integer in [0, 2**64), got {value!r}")
            if value < vars(self).get("step", 0):  # only a falling step can pass one
                _check_updates(self.prototypes, value)
        if name == "capacity" and not _is_count(value, 1, _U32_LIMIT):
            raise ValueError(f"capacity must be an integer in [1, 2**32), got {value!r}")
        if name == "alpha" and not 0.0 < value < np.inf:
            raise ValueError("alpha must be positive and finite")
        if name == "alpha" and value > ALPHA_LIMIT:
            raise ValueError(
                f"alpha (--alpha) must be at most {ALPHA_LIMIT:g}, got {value!r}: above 1 a "
                "full bank never replaces, and larger values only push tau toward overflow"
            )
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
        if name == "prototypes":
            _check_updates(value, self.step)
            if len({p.channels for p in value}) > 1:
                raise ValueError("prototypes disagree on the channel count")
            own, ids, adopted = vars(self).get("_matrix"), set(), []
            for p in value:
                base = p._row.base
                if (base is not None and base is not own) or id(p) in ids:
                    p = StylePrototype(p.mean, p.std, p.use_count, p.last_update)
                ids.add(id(p))
                adopted.append(p)
            value = tuple(adopted)
            matrix = np.array([style_vector(p) for p in value])
            for p, row in zip(value, matrix):
                p._row = row
            object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, name, value)

    def __reduce__(self):  # copy, deepcopy and pickle go through the file format
        return load, (self.save(),)

    def __len__(self) -> int:
        return len(self.prototypes)

    @property
    def channels(self) -> int | None:
        return self.prototypes[0].channels if self.prototypes else None

    def _check_channels(self, s: ChannelStats) -> None:
        c = self.channels
        if c is not None and s.channels != c:
            raise ValueError(f"channel mismatch: bank has C={c}, stats have C={s.channels}")

    def vectors(self) -> np.ndarray:
        """A copy of the (K, 2C) style matrix: prototype style vectors in storage order."""
        if not self.prototypes:
            raise StateError("empty bank holds no prototype vectors")
        return self._matrix.copy()

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
        if len(self.prototypes) < self.capacity and self.mode == "train":
            self.prototypes = (*self.prototypes, StylePrototype(s.mean, s.std, 1, self.step))
            return UpdateReport("bootstrap", len(self.prototypes) - 1)

        v = style_vector(s)
        d = sq_distances(v[None], self._matrix)[0]
        tau = float(self.alpha / self.capacity * np.sum(d))
        nearest = int(np.argmin(d))
        d_min = float(d[nearest])

        protos = self.prototypes
        if d_min > tau and self.mode == "train":
            victim = min(
                range(len(protos)), key=lambda i: (protos[i].use_count, protos[i].last_update)
            )
            fresh = StylePrototype(s.mean, s.std, 1, self.step)
            protos[victim]._row = self._matrix[victim].copy()  # the evicted one keeps its values
            self._matrix[victim] = v
            fresh._row = self._matrix[victim]
            object.__setattr__(self, "prototypes", (*protos[:victim], fresh, *protos[victim + 1 :]))
            return UpdateReport("replace", victim, d_min=d_min, tau=tau)

        p = protos[nearest]
        row, lam = p._row, self.momentum
        row *= lam  # the bits of ``lam * p.mean + (1 - lam) * s.mean``, and of std
        row += (1.0 - lam) * v
        assert np.all(p.std > 0.0)  # convex combination of positive stds
        p.use_count += 1
        p.last_update = self.step
        return UpdateReport("fuse", nearest, d_min=d_min, tau=tau)

    def save(self) -> bytes:
        """Serialize to the versioned binary format documented above; raises
        ValueError for a prototype whose ``last_update`` was set past ``step``."""
        _check_updates(self.prototypes, self.step)
        c = self.channels or 0
        header = _HEADER.pack(
            MAGIC, FORMAT_VERSION, self.capacity, c, len(self.prototypes),
            _MODES.index(self.mode), self.step, self.alpha, self.momentum,
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
            capacity=capacity, alpha=alpha, momentum=momentum, mode=_MODES[mode_code],
            step=step, prototypes=prototypes,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
