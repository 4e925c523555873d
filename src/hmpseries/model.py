"""Model parameterizations: exact stochastic matrices, stationary
distributions, perturbation regimes, path sampling, and the JSON
model/regime file format.

All probabilities are Fractions and all distribution vectors are row
vectors.  States and observation symbols are 0-based integers over a common
alphabet of size s.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from .errors import (
    NegativeEntry,
    NotStrictlyPositive,
    OutOfRange,
    ParseError,
    RowSumViolation,
    SingularSystem,
    ValidationError,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


def parse_rational(value) -> Fraction:
    """Exact rational from int/str/Fraction; floats go through their decimal repr.

    Accepts "a/b" and decimal strings ("0.25", "1e-3"); never converts a
    float through its binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"cannot parse rational from {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot parse rational from {value!r}") from None
    raise ParseError(f"cannot parse rational from {value!r}")


def _coerce_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(parse_rational(x) for x in row) for row in rows)
    if not out or any(len(r) != len(out) for r in out):
        raise ValidationError("matrix must be square and non-empty")
    return out


@dataclass(frozen=True)
class StochasticMatrix:
    """Square matrix with nonnegative entries and rows summing to exactly 1."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = _coerce_rows(self.rows)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x < 0:
                    raise NegativeEntry(f"entry ({i},{j}) = {x} is negative")
            total = sum(row)
            if total != 1:
                raise RowSumViolation(f"row {i} sums to {total}, expected 1")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def strictly_positive(self) -> bool:
        return all(x > 0 for row in self.rows for x in row)

    def column_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row[j] for row in self.rows) for j in range(self.size))

    @staticmethod
    def identity(s: int) -> "StochasticMatrix":
        return StochasticMatrix(tuple(
            tuple(_F1 if i == j else _F0 for j in range(s)) for i in range(s)
        ))

    @staticmethod
    def uniform(s: int) -> "StochasticMatrix":
        u = Fraction(1, s)
        return StochasticMatrix(tuple(tuple(u for _ in range(s)) for _ in range(s)))


@dataclass(frozen=True)
class PerturbationMatrix:
    """Square direction matrix whose rows sum to exactly 0."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = _coerce_rows(self.rows)
        for i, row in enumerate(rows):
            total = sum(row)
            if total != 0:
                raise RowSumViolation(f"row {i} sums to {total}, expected 0")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def require_emission_signs(self):
        # identity + eps*T must stay row-stochastic for small eps >= 0
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if i != j and x < 0:
                    raise NegativeEntry(
                        f"off-diagonal perturbation entry ({i},{j}) = {x} is negative"
                    )

    @staticmethod
    def zero(s: int) -> "PerturbationMatrix":
        return PerturbationMatrix(tuple(tuple(_F0 for _ in range(s)) for _ in range(s)))


def _solve_exact(a, b):
    """Gauss-Jordan over Fractions for a square system; raises SingularSystem."""
    n = len(b)
    rows = [list(r) + [bv] for r, bv in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            raise SingularSystem(f"no pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _matmul(a, b):
    """The exact product of two matrices given as rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def stationary_distribution(m: StochasticMatrix) -> tuple[Fraction, ...]:
    """The unique row vector pi with pi M = pi and sum(pi) = 1, exactly."""
    if not m.strictly_positive:
        raise NotStrictlyPositive("stationary solve needs a strictly positive matrix")
    s = m.size
    a = [[m.rows[i][j] - (_F1 if i == j else _F0) for i in range(s)] for j in range(s - 1)]
    a.append([_F1] * s)
    b = [_F0] * (s - 1) + [_F1]
    pi = _solve_exact(a, b)
    if any(x <= 0 for x in pi):
        raise SingularSystem("stationary solve produced non-positive entries")
    return tuple(pi)


@dataclass(frozen=True)
class HmpModel:
    """A hidden Markov process (M, R) with its exact stationary distribution."""

    M: StochasticMatrix
    R: StochasticMatrix
    pi: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return self.M.size


def validate_model(m: StochasticMatrix, r: StochasticMatrix) -> HmpModel:
    """Check the standing assumptions and attach the stationary distribution."""
    if m.size != r.size:
        raise ValidationError(f"transition size {m.size} != emission size {r.size}")
    if m.size < 2:
        raise ValidationError("alphabet size must be at least 2")
    if not m.strictly_positive:
        raise NotStrictlyPositive("transition matrix has a zero entry")
    return HmpModel(m, r, stationary_distribution(m))


@dataclass(frozen=True)
class HighSnr:
    """Near-noiseless family R(eps) = I + eps*T with a fixed chain M."""

    M: StochasticMatrix
    T: PerturbationMatrix

    def __post_init__(self):
        if self.M.size != self.T.size:
            raise ValidationError("chain and perturbation sizes differ")
        if not self.M.strictly_positive:
            raise NotStrictlyPositive("transition matrix has a zero entry")
        self.T.require_emission_signs()


@dataclass(frozen=True)
class AlmostMemoryless:
    """Near-iid family M(delta) = U + delta*T with a fixed emission R."""

    R: StochasticMatrix
    T: PerturbationMatrix

    def __post_init__(self):
        if self.R.size != self.T.size:
            raise ValidationError("emission and perturbation sizes differ")
        for j, c in enumerate(self.R.column_sums()):
            if c <= 0:
                raise ValidationError(f"emission column {j} sums to 0")


RegimeSpec = HighSnr | AlmostMemoryless


def regime_kind(spec: RegimeSpec) -> str:
    return "high-snr" if isinstance(spec, HighSnr) else "almost-memoryless"


def _perturbed(base, t, value, in_range, message):
    """base + value*T as a stochastic matrix, once in_range holds for every
    entry; else OutOfRange with message for the first one, row by row."""
    rows = tuple(tuple(b + value * x for b, x in zip(*pair)) for pair in zip(base.rows, t.rows))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not in_range(x):
                raise OutOfRange(message.format(i=i, j=j, x=x, value=value))
    return StochasticMatrix(rows)


def perturbed_identity(t: PerturbationMatrix, value: Fraction) -> StochasticMatrix:
    """I + value*T as a stochastic matrix; OutOfRange if any entry leaves [0,1]."""
    return _perturbed(StochasticMatrix.identity(t.size), t, value, lambda x: 0 <= x <= 1,
                      "emission entry ({i},{j}) = {x} at parameter {value}")


def perturbed_uniform(t: PerturbationMatrix, value: Fraction) -> StochasticMatrix:
    """U + value*T as a strictly positive matrix; OutOfRange on the boundary."""
    return _perturbed(StochasticMatrix.uniform(t.size), t, value, lambda x: x > 0,
                      "transition entry ({i},{j}) = {x} loses strict positivity "
                      "at parameter {value}")


def instantiate(spec: RegimeSpec, value) -> HmpModel:
    """The concrete model at one parameter value of the regime family."""
    value = parse_rational(value)
    if isinstance(spec, HighSnr):
        return validate_model(spec.M, perturbed_identity(spec.T, value))
    return validate_model(perturbed_uniform(spec.T, value), spec.R)


def stationary_first_order(t: PerturbationMatrix) -> tuple[Fraction, ...]:
    """Order-delta coefficient of the stationary distribution of U + delta*T.

    Writing pi(delta) = u + delta*psi + O(delta^2) with sum(psi) = 0, the
    stationarity equation gives psi(I - U) = (1/s) xi^t T; psi*U vanishes
    for zero-sum psi, so psi is exactly (1/s) * (column sums of T).
    """
    s = t.size
    return tuple(sum(t.rows[i][j] for i in range(s)) / s for j in range(s))


def _cumulative(weights) -> list[float]:
    return list(accumulate(map(float, weights)))


def sample_path(model: HmpModel, n: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A seeded (x, y) path of length n from the stationary process."""
    if n < 1:
        raise ValueError("path length must be at least 1")
    rng = random.Random(seed)
    s = model.size
    pi_cum = _cumulative(model.pi)
    m_cum = [_cumulative(row) for row in model.M.rows]
    r_cum = [_cumulative(row) for row in model.R.rows]

    def draw(cum):
        return min(bisect_right(cum, rng.random()), s - 1)

    xs, ys = [], []
    x = draw(pi_cum)
    for _ in range(n):
        xs.append(x)
        ys.append(draw(r_cum[x]))
        x = draw(m_cum[x])
    return tuple(xs), tuple(ys)


# Symmetric binary families used throughout tests and demos.

def binary_symmetric_chain(p) -> StochasticMatrix:
    p = parse_rational(p)
    return StochasticMatrix(((1 - p, p), (p, 1 - p)))


def binary_symmetric_emission(eps) -> StochasticMatrix:
    return binary_symmetric_chain(eps)


def high_snr_binary(p) -> HighSnr:
    """Binary symmetric chain with flip probability p, noise direction eps."""
    t = PerturbationMatrix(((-1, 1), (1, -1)))
    return HighSnr(binary_symmetric_chain(p), t)


def am_binary(mu) -> AlmostMemoryless:
    """Binary channel at fidelity mu = 1 - 2*eps, memory direction delta.

    The chain at parameter delta is the symmetric flip chain with
    p = 1/2 - delta.
    """
    mu = parse_rational(mu)
    if not 0 <= mu <= 1:
        raise ValidationError(f"mu = {mu} outside [0, 1]")
    t = PerturbationMatrix(((1, -1), (-1, 1)))
    return AlmostMemoryless(binary_symmetric_emission((1 - mu) / 2), t)


# JSON file formats.
#
# model file:  {"s": 2, "M": [["4/5","1/5"],["1/5","4/5"]], "R": [[...],[...]]}
# regime file: {"regime": "high-snr", "s": 2, "M": [[...]], "T": [[...]]}
#              {"regime": "almost-memoryless", "s": 2, "R": [[...]], "T": [[...]]}
# Entries are rationals as "a/b" strings, decimal strings, or JSON numbers
# (decimal text is parsed exactly; binary float rounding never occurs).

def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ParseError(f"{where}: missing field {key!r}")
    return data[key]


def _matrix_field(data: dict, key: str, s: int, where: str):
    raw = _require(data, key, where)
    if not isinstance(raw, list) or len(raw) != s or any(
        not isinstance(r, list) or len(r) != s for r in raw
    ):
        raise ParseError(f"{where}: field {key!r} must be an {s}x{s} array")
    try:
        return tuple(tuple(parse_rational(x) for x in row) for row in raw)
    except ParseError as e:
        raise ParseError(f"{where}: field {key!r}: {e}") from None


def _size_field(data: dict, where: str) -> int:
    s = _require(data, "s", where)
    if not isinstance(s, int) or s < 2:
        raise ParseError(f"{where}: field 's' must be an integer >= 2")
    return s


def model_from_dict(data: dict, where: str = "model") -> HmpModel:
    s = _size_field(data, where)
    m = StochasticMatrix(_matrix_field(data, "M", s, where))
    r = StochasticMatrix(_matrix_field(data, "R", s, where))
    return validate_model(m, r)


def regime_from_dict(data: dict, where: str = "regime") -> RegimeSpec:
    kind = _require(data, "regime", where)
    if kind not in ("high-snr", "almost-memoryless"):
        raise ParseError(f"{where}: unknown regime {kind!r}")
    s = _size_field(data, where)
    t = PerturbationMatrix(_matrix_field(data, "T", s, where))
    if kind == "high-snr":
        return HighSnr(StochasticMatrix(_matrix_field(data, "M", s, where)), t)
    return AlmostMemoryless(StochasticMatrix(_matrix_field(data, "R", s, where)), t)


def _load_json(path) -> dict:
    path = Path(path)
    try:
        with open(path) as f:
            data = json.load(f, parse_float=str)
    except OSError as e:
        raise ParseError(f"{path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


def load_model(path) -> HmpModel:
    return model_from_dict(_load_json(path), where=str(path))


def load_regime(path) -> RegimeSpec:
    return regime_from_dict(_load_json(path), where=str(path))


def _strings(matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix.rows]


def model_to_dict(model: HmpModel) -> dict:
    return {"s": model.size, "M": _strings(model.M), "R": _strings(model.R)}


def regime_to_dict(spec: RegimeSpec) -> dict:
    key, fixed = ("M", spec.M) if isinstance(spec, HighSnr) else ("R", spec.R)
    return {"regime": regime_kind(spec), "s": spec.T.size, key: _strings(fixed),
            "T": _strings(spec.T)}
