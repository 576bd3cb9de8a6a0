"""Scenario data model, deterministic generation, and JSON persistence.

A scenario is N channel accesses by K streams of linear power gains, a list
of timed energy arrivals ``(access, joules)`` with the first arrival at
access 1 (the initial battery), a symbol duration, and one constellation per
stream.

Generation is reproducible across platforms: all randomness is derived from
the uniform stream of a Philox (philox4x64-10) counter-based generator, with
normals obtained through the inverse normal CDF.  The draw order is fixed
and documented in the JSON schema below.

Config file schema (JSON, one object)::

    {
      "n": 100, "k": 4, "ts_seconds": 0.01,
      "arrivals": [{"access": 1, "joules": 0.5}, ...],
      "gains": [[...K rows of N gains...]]
               | {"model": "static"|"block_random", "block_len": int,
                  "constant_across_streams": bool},
      "constellations": ["bpsk", "4pam", ...] | [{"points": [...], "probs": [...]}],
      "seed": 7          // optional unless gains is a generator spec
    }

Numbers are serialized with full ``repr`` precision, so save/load round
trips are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri

from .constellations import Constellation, by_name, pam
from .errors import InvalidInputError, SchemaError
from .waterfill import _normal_gains

__all__ = ["Pool", "Scenario", "build_pools", "generate", "rescale_energy", "save", "load",
           "loads", "dumps"]

_GAIN_FLOOR = 1e-12  # chi-square draws can round to 0; gains must stay positive


@dataclass(frozen=True)
class Pool:
    """Accesses between two consecutive energy arrivals (1-based, inclusive)."""

    index: int
    start: int
    end: int
    energy: float

    @property
    def arrival_access(self) -> int:
        return self.start


def build_pools(arrivals, n: int) -> list[Pool]:
    """Partition accesses 1..n into pools at the arrival instants."""
    arr = [(int(e), float(E)) for e, E in arrivals]
    if not arr:
        raise InvalidInputError("need at least one energy arrival")
    if arr[0][0] != 1:
        raise InvalidInputError("first arrival must be at access 1 (initial battery)")
    for (e0, _), (e1, _) in zip(arr, arr[1:]):
        if e1 <= e0:
            raise InvalidInputError("arrival accesses must be strictly increasing")
    if arr[-1][0] > n:
        raise InvalidInputError(f"arrival at access {arr[-1][0]} exceeds n = {n}")
    if any(E < 0.0 or not math.isfinite(E) for _, E in arr):
        raise InvalidInputError("packet energies must be finite and >= 0")
    pools = []
    for j, (e, E) in enumerate(arr):
        end = arr[j + 1][0] - 1 if j + 1 < len(arr) else n
        pools.append(Pool(index=j + 1, start=e, end=end, energy=E))
    return pools


@dataclass(frozen=True, eq=False)
class Scenario:
    n: int
    k: int
    ts: float
    gains: NDArray[np.float64]                  # (K, N)
    arrivals: tuple[tuple[int, float], ...]     # ((e_j, E_j), ...), e_1 = 1
    constellations: tuple[Constellation, ...]   # one per stream
    seed: int | None = None
    pools: tuple[Pool, ...] = field(init=False, repr=False)   # cut at the arrivals
    pool_of_access: NDArray[np.int64] = field(init=False, repr=False)   # (N,), 1-based

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise InvalidInputError("need n >= 1 accesses and k >= 1 streams")
        if not (math.isfinite(self.ts) and self.ts > 0.0):
            raise InvalidInputError(f"ts must be finite and > 0, got {self.ts!r}")
        g = np.asarray(self.gains, dtype=float)
        if g.shape != (self.k, self.n):
            raise InvalidInputError(
                f"gains shape {g.shape} does not match (k, n) = {(self.k, self.n)}"
            )
        object.__setattr__(self, "gains", _normal_gains(g))
        pools = tuple(build_pools(self.arrivals, self.n))
        object.__setattr__(self, "pools", pools)
        object.__setattr__(self, "pool_of_access", np.repeat(
            np.arange(1, len(pools) + 1, dtype=np.int64), [p.end - p.start + 1 for p in pools]))
        object.__setattr__(self, "arrivals", tuple((p.start, p.energy) for p in pools))
        if len(self.constellations) != self.k:
            raise InvalidInputError("need exactly one constellation per stream")
        object.__setattr__(self, "constellations", tuple(self.constellations))

    @property
    def n_arrivals(self) -> int:
        return len(self.arrivals)

    @property
    def total_energy(self) -> float:
        return float(sum(E for _, E in self.arrivals))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.ts == other.ts
            and np.array_equal(self.gains, other.gains)
            and self.arrivals == other.arrivals
            and self.seed == other.seed
            and [c.cache_key() for c in self.constellations]
            == [c.cache_key() for c in other.constellations]
        )


def _uniform_stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def generate(
    n: int,
    k: int,
    ts: float,
    j: int,
    total_energy: float,
    constellations=("bpsk", "4pam", "16pam", "32pam"),
    gain_model: str = "block_random",
    block_len: int = 10,
    constant_across_streams: bool = False,
    seed: int = 0,
) -> Scenario:
    """Draw a random scenario, fully reproducible from ``seed``.

    Arrivals: access 1 plus ``j - 1`` draws without replacement from 2..n
    (sorted).  Packet energies: ``j`` uniforms rescaled to ``total_energy``.
    Gains: squared standard normals, one per stream ("static") or one per
    stream and block of ``block_len`` accesses ("block_random"); with
    ``constant_across_streams`` a single gain track is shared by all streams.
    """
    if j < 1 or j > n:
        raise InvalidInputError(f"need 1 <= j <= n, got j={j}, n={n}")
    if total_energy < 0.0:
        raise InvalidInputError("total_energy must be >= 0")
    if not 0 <= seed < 2**128:   # the Philox key range
        raise InvalidInputError(f"seed must be in 0 <= seed < 2**128, got {seed}")
    rng = _uniform_stream(seed)

    # draw order is part of the reproducibility contract: arrivals, energies, gains
    if j > 1:
        keys = rng.random(n - 1)
        extra = np.sort(np.argsort(keys)[: j - 1] + 2)
        accesses = np.concatenate([[1], extra])
    else:
        accesses = np.array([1])
    shares = rng.random(j)
    energies = shares / shares.sum() * total_energy

    if constant_across_streams:
        rows = 1
    else:
        rows = k
    if gain_model == "static":
        block_len = n  # one block spans every access
    elif gain_model != "block_random":
        raise InvalidInputError(f"unknown gain model {gain_model!r}")
    if block_len < 1:
        raise InvalidInputError("block_len must be >= 1")
    n_blocks = -(-n // block_len)
    draws = ndtri(rng.random((rows, n_blocks))) ** 2
    gains = np.repeat(np.maximum(draws, _GAIN_FLOOR), block_len, axis=1)[:, :n]
    if constant_across_streams:
        gains = np.repeat(gains, k, axis=0)

    cons = tuple(c if isinstance(c, Constellation) else by_name(c) for c in constellations)
    if len(cons) != k:
        raise InvalidInputError("need exactly one constellation per stream")
    return Scenario(
        n=n,
        k=k,
        ts=ts,
        gains=gains,
        arrivals=tuple(zip(accesses.tolist(), energies.tolist())),
        constellations=cons,
        seed=seed,
    )


def rescale_energy(s: Scenario, total_energy: float) -> Scenario:
    """Same scenario with packet energies rescaled to a new total."""
    if total_energy < 0.0:
        raise InvalidInputError("total_energy must be >= 0")
    cur = s.total_energy
    if cur == 0.0:
        raise InvalidInputError("cannot rescale a zero-energy scenario")
    f = total_energy / cur
    return replace(s, arrivals=tuple((e, E * f) for e, E in s.arrivals))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _constellation_to_json(c: Constellation):
    """A built-in input by its name, any other by its points and probs."""
    if c.is_gaussian:
        return "gaussian"
    if pam(c.cardinality).cache_key() == c.cache_key():   # every discrete built-in is a PAM
        return c.label
    return {"points": c.points.tolist(), "probs": c.probs.tolist(), "label": c.label}


def _constellation_from_json(obj, where: str) -> Constellation:
    if isinstance(obj, str):
        try:
            return by_name(obj)
        except InvalidInputError as exc:
            raise SchemaError(str(exc), field=where) from None
    if isinstance(obj, dict):
        for key in ("points", "probs"):
            if key not in obj:
                raise SchemaError(f"missing {where}.{key}", field=f"{where}.{key}")
        try:
            return Constellation(
                "discrete",
                np.asarray(obj["points"], dtype=float),
                np.asarray(obj["probs"], dtype=float),
                label=obj.get("label", ""),
            )
        except InvalidInputError as exc:
            raise SchemaError(f"{where}: {exc}", field=where) from None
    raise SchemaError(f"{where} must be a name or points/probs object", field=where)


def dumps(s: Scenario) -> str:
    doc = {
        "n": s.n,
        "k": s.k,
        "ts_seconds": s.ts,
        "arrivals": [{"access": e, "joules": E} for e, E in s.arrivals],
        "gains": [row.tolist() for row in s.gains],
        "constellations": [_constellation_to_json(c) for c in s.constellations],
    }
    if s.seed is not None:
        doc["seed"] = s.seed
    return json.dumps(doc, indent=2)


def save(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(s))
        fh.write("\n")


def _require(doc: dict, key: str, kind, where: str = ""):
    """``doc[key]`` if it is a ``kind`` (a bool is not an int or a number), else SchemaError."""
    path = f"{where}.{key}" if where else key
    if key not in doc:
        raise SchemaError(f"missing required field {path!r}", field=path)
    val = doc[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"field {path!r} must be a number", field=path)
        return float(val)
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"field {path!r} has the wrong type", field=path)
    return val


def loads(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    n = _require(doc, "n", int)
    k = _require(doc, "k", int)
    ts = _require(doc, "ts_seconds", float)
    arrivals_doc = _require(doc, "arrivals", list)
    arrivals = []
    for i, item in enumerate(arrivals_doc):
        if not isinstance(item, dict):
            raise SchemaError(f"arrivals[{i}] must be an object", field=f"arrivals[{i}]")
        e = _require(item, "access", int, where=f"arrivals[{i}]")
        jl = _require(item, "joules", float, where=f"arrivals[{i}]")
        arrivals.append((e, jl))
    cons_doc = _require(doc, "constellations", list)
    cons = tuple(
        _constellation_from_json(obj, f"constellations[{i}]")
        for i, obj in enumerate(cons_doc)
    )
    seed = _require(doc, "seed", int) if doc.get("seed") is not None else None

    gains_doc = _require(doc, "gains", (list, dict))
    if isinstance(gains_doc, dict):
        if seed is None:
            raise SchemaError(
                "a gains generator spec requires 'seed'", field="gains"
            )
        spec = {"block_len": 10, "constant_across_streams": False, **gains_doc}
        gen = generate(
            n=n,
            k=k,
            ts=ts,
            j=len(arrivals),
            total_energy=1.0,
            constellations=cons,
            gain_model=_require(spec, "model", str, where="gains"),
            block_len=_require(spec, "block_len", int, where="gains"),
            constant_across_streams=_require(spec, "constant_across_streams", bool, where="gains"),
            seed=seed,
        )
        gains = gen.gains
    else:
        try:
            gains = np.asarray(gains_doc, dtype=float)
        except (TypeError, ValueError):
            raise SchemaError("field 'gains' must be a K x N number array", field="gains") from None

    try:
        return Scenario(
            n=n, k=k, ts=ts, gains=gains, arrivals=tuple(arrivals),
            constellations=cons, seed=seed,
        )
    except InvalidInputError as exc:
        raise SchemaError(str(exc)) from None


def load(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
