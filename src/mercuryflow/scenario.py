"""Scenario data model, deterministic generation, and JSON persistence.

A scenario is N channel accesses by K streams of linear power gains, a list
of timed energy arrivals ``(access, joules)`` with the first arrival at
access 1 (the initial battery), a symbol duration, and one constellation per
stream.

Generation is reproducible across platforms: all randomness is derived from
the uniform stream of a Philox (philox4x64-10) counter-based generator, with
normals obtained through the inverse normal CDF: a port of Cephes' ``ndtri``
in this module (``_ndtri``), which gives the same bits as
``scipy.special.ndtri``.  The draw order is fixed and documented in the JSON
schema below.

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

import inspect
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from .constellations import Constellation, by_name, pam
from .errors import NORMAL_MIN, InvalidInputError, SchemaError, _integer, _real, _reals

__all__ = ["Pool", "Scenario", "build_pools", "generate", "rescale_energy", "save", "load",
           "loads", "dumps"]

_GAIN_FLOOR = 1e-12  # chi-square draws can round to 0; gains must stay positive


# Cephes ndtri: rational approximations of the inverse normal CDF, each
# polynomial highest power first (the Q's leading 1 is Cephes' p1evl).  P0/Q0
# cover |u - 0.5| <= 0.5 - exp(-2); P1/Q1 and P2/Q2 the tails with
# z = sqrt(-2 log u) below and above 8 (u above and below exp(-32)).
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(u: float) -> float:
    """Inverse standard normal CDF of a uniform u in [0, 1), Cephes' ndtri step for step.

    Scalar on purpose: ``math.log`` is the C library's log, as in Cephes,
    where ``np.log``'s vector loops may differ from it in the last bit.
    """
    if u == 0.0:
        return -math.inf
    upper = u > 1.0 - _EXP_M2
    y = 1.0 - u if upper else u
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x


@dataclass(frozen=True)
class Pool:
    """Accesses between two consecutive energy arrivals (1-based, inclusive)."""

    index: int
    start: int
    end: int
    energy: float


def build_pools(arrivals, n: int) -> list[Pool]:
    """Partition accesses 1..n into pools at the arrival instants."""
    arrivals = list(arrivals)
    starts = [_integer(e, "arrival access") for e, _ in arrivals]
    energies = _reals([E for _, E in arrivals], "packet energy").tolist()
    if not starts:
        raise InvalidInputError("need at least one energy arrival")
    if starts[0] != 1:
        raise InvalidInputError("first arrival must be at access 1 (initial battery)")
    if any(e1 <= e0 for e0, e1 in zip(starts, starts[1:])):
        raise InvalidInputError("arrival accesses must be strictly increasing")
    if starts[-1] > n:
        raise InvalidInputError(f"arrival at access {starts[-1]} exceeds n = {n}")
    ends = [e - 1 for e in starts[1:]] + [n]
    return [Pool(index=j, start=e, end=end, energy=E)
            for j, (e, end, E) in enumerate(zip(starts, ends, energies), 1)]


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
    # each pool's solve alone per tables tuple, kept by ``offline._solve_groups``; a copy,
    # an unpickled or a replaced scenario starts with none
    _pool_solves: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "k", _integer(self.k, "k"))
        object.__setattr__(self, "ts", _real(self.ts, "ts", strict=True))
        if self.seed is not None:
            object.__setattr__(self, "seed", _integer(self.seed, "seed", least=None))
        # the scenario's own copy, read-only: the solvers rely on this check, and a
        # caller's array changed after construction cannot reach them
        g = _reals(self.gains, "gains", least=NORMAL_MIN).copy()
        if g.shape != (self.k, self.n):
            raise InvalidInputError(
                f"gains shape {g.shape} does not match (k, n) = {(self.k, self.n)}"
            )
        g.flags.writeable = False
        object.__setattr__(self, "gains", g)
        pools = tuple(build_pools(self.arrivals, self.n))
        object.__setattr__(self, "pools", pools)
        object.__setattr__(self, "pool_of_access", np.repeat(
            np.arange(1, len(pools) + 1, dtype=np.int64), [p.end - p.start + 1 for p in pools]))
        object.__setattr__(self, "arrivals", tuple((p.start, p.energy) for p in pools))
        # the solvers take the schedulers' epoch budgets, sums of these packets, unchecked
        if not math.isfinite(self.total_energy):
            raise InvalidInputError(f"packet energies must sum to a finite total, "
                                    f"got {self.total_energy!r}")
        if len(self.constellations) != self.k:
            raise InvalidInputError("need exactly one constellation per stream")
        for i, c in enumerate(self.constellations, 1):
            if not isinstance(c, Constellation):
                raise InvalidInputError(f"stream {i}'s constellation must be a Constellation, "
                                        f"got {c!r}; constellations.by_name makes one from a name")
        object.__setattr__(self, "constellations", tuple(self.constellations))

    def __reduce__(self):   # copies and unpickled scenarios are built anew: checked, read-only
        return Scenario, (self.n, self.k, self.ts, self.gains, self.arrivals,
                          self.constellations, self.seed)

    @property
    def n_arrivals(self) -> int:
        return len(self.arrivals)

    @property
    def total_energy(self) -> float:
        return sum(E for _, E in self.arrivals)

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
    n, k, j = _integer(n, "n"), _integer(k, "k"), _integer(j, "j")
    if j > n:
        raise InvalidInputError(f"need 1 <= j <= n, got j={j}, n={n}")
    total_energy = _real(total_energy, "total_energy")
    seed = _integer(seed, "seed", least=None)
    if not 0 <= seed < 2**128:   # the Philox key range
        raise InvalidInputError(f"seed must be in 0 <= seed < 2**128, got {seed}")
    if not isinstance(constant_across_streams, (bool, np.bool_)):
        raise InvalidInputError(f"constant_across_streams must be a bool, "
                                f"got {constant_across_streams!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))

    # draw order is part of the reproducibility contract: arrivals, energies, gains
    if j > 1:
        keys = rng.random(n - 1)
        extra = np.sort(np.argsort(keys)[: j - 1] + 2)
        accesses = np.concatenate([[1], extra])
    else:
        accesses = np.array([1])
    shares = rng.random(j)
    energies = shares / shares.sum() * total_energy

    rows = 1 if constant_across_streams else k
    if gain_model == "static":
        block_len = n  # one block spans every access
    elif gain_model != "block_random":
        raise InvalidInputError(f"unknown gain model {gain_model!r}")
    block_len = _integer(block_len, "block_len")
    n_blocks = -(-n // block_len)
    normals = [[_ndtri(u) for u in row] for row in rng.random((rows, n_blocks)).tolist()]
    draws = np.array(normals) ** 2
    gains = np.repeat(np.maximum(draws, _GAIN_FLOOR), block_len, axis=1)[:, :n]
    if constant_across_streams:
        gains = np.repeat(gains, k, axis=0)

    cons = tuple(c if isinstance(c, Constellation) else by_name(c) for c in constellations)
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
    total_energy = _real(total_energy, "total_energy")
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
            return Constellation("discrete", obj["points"], obj["probs"],
                                 label=obj.get("label", ""))
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
        return val   # as JSON gave it: the rule of the field it fills converts it
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise SchemaError(f"field {path!r} has the wrong type", field=path)
    return val


def _generate_args(params: dict, supplied: tuple[str, ...], optional: tuple[str, ...] = ()):
    """generate()'s parameters; SchemaError for a ``params`` key not one or in ``supplied``,
    then for the first one without a default that is in none of ``params``, ``supplied`` and
    ``optional``."""
    args = inspect.signature(generate, eval_str=True).parameters
    for key in params:
        if key not in args or key in supplied:
            raise SchemaError(f"unknown field 'params.{key}'", field=f"params.{key}")
    for key, arg in args.items():
        if arg.default is arg.empty and key not in (*params, *supplied, *optional):
            raise SchemaError(f"missing required field 'params.{key}'", field=f"params.{key}")
    return args


def _json_object(text: str) -> dict:
    """``text`` as one JSON object, else SchemaError (an int past Python's digit limit too)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    return doc


def loads(text: str) -> Scenario:
    doc = _json_object(text)
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
        gen_args = dict(
            gain_model=_require(spec, "model", str, where="gains"),
            block_len=_require(spec, "block_len", int, where="gains"),
            constant_across_streams=_require(spec, "constant_across_streams", bool, where="gains"),
        )
    else:
        try:   # rows of JSON numbers (a bool or a string is none), equal in length, all doubles
            gains = _reals(gains_doc, "gains", least=-math.inf)
        except InvalidInputError as exc:
            raise SchemaError(f"field 'gains' must be a K x N number array: {exc}",
                              field="gains") from None

    # one conversion for both forms of gains: the spec's draw fails as Scenario does
    try:
        if isinstance(gains_doc, dict):
            build_pools(arrivals, n)   # an arrival past n, before the draw of j <= n arrivals
            gains = generate(n=n, k=k, ts=ts, j=len(arrivals), total_energy=1.0,
                             constellations=cons, seed=seed, **gen_args).gains
        return Scenario(
            n=n, k=k, ts=ts, gains=gains, arrivals=tuple(arrivals),
            constellations=cons, seed=seed,
        )
    except InvalidInputError as exc:
        raise SchemaError(str(exc)) from None


def load(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
