"""Characteristic exponents of Levy processes and the product kernel.

An exponent is the negative-definite function Psi with
``E exp(i xi . X(t)) = exp(-t Psi(xi))``.  The module ships the stable /
Brownian / drift families plus a sum combinator, and evaluates the product
kernel  ``K(xi) = prod_j Re(1 / (1 + Psi_j(xi)))``  of an N-tuple of
exponents.  Every family but Skewed1DStable is R(|xi|) - i b . xi: ``_radial``
gives R on q = |xi|^2 and ``drift`` gives b.  Without b, K depends on q alone
and ``ExponentVector.kernel_radial`` evaluates it on radii.

All evaluation is vectorized: ``xi`` may be a single d-vector or an array
of shape ``(..., d)`` (in d=1, plain scalars and 1-D arrays are accepted).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np


class DimensionMismatchError(ValueError):
    """Point dimension does not match the exponent's dimension."""


def _as_points(xi, dim: int) -> tuple[np.ndarray, tuple]:
    """Coerce xi into an (n, dim) float array; return it and the lead shape."""
    arr = np.asarray(xi, dtype=float)
    if dim == 1 and (arr.ndim <= 1 or arr.shape[-1] != 1):
        arr = arr.reshape(arr.shape + (1,))
    if arr.ndim == 1 and arr.shape == (dim,):
        arr = arr.reshape(1, dim)
        return arr, ()
    if arr.shape[-1] != dim:
        raise DimensionMismatchError(
            f"points of dimension {arr.shape[-1]} where dimension {dim} is expected"
        )
    lead = arr.shape[:-1]
    return arr.reshape(-1, dim), lead


def _squared_radius(pts: np.ndarray) -> np.ndarray:
    """|x|^2 of the rows of an (n, d) array, summed as np.linalg.norm sums it:
    in column order below 8 columns, in place; numpy sums wider rows pairwise."""
    if pts.shape[1] >= 8:
        return np.add.reduce(pts * pts, axis=-1)
    q = pts[:, 0] * pts[:, 0]
    for k in range(1, pts.shape[1]):
        q += pts[:, k] * pts[:, k]
    return q


def _finite(name: str, value):
    """value, refused unless it is a finite real number (a bool is not one)."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True, kw_only=True)
class LevyExponent:
    """Base class; families define ``_growth`` (the growth exponent of Re Psi
    at infinity, -inf where it is 0) and ``_radial`` (R on q = |xi|^2) or, if
    Psi is not R(|xi|), ``_eval`` with radial False (a drift defines both)."""

    dim: int = 1
    radial = True  # Psi is R(|xi|): no drift, no skew

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        return self._radial(_squared_radius(pts))

    @property
    def drift(self) -> np.ndarray:
        """b of Psi = R - i b . xi: zero but for drifts and their sums."""
        return np.zeros(self.dim)

    def __call__(self, xi):
        """Psi(xi): a complex number for one point, else a complex array of
        the lead shape of xi."""
        pts, lead = _as_points(xi, self.dim)
        out = self._eval(pts).astype(complex, copy=False).reshape(lead)
        return complex(out) if out.ndim == 0 else out

    def kernel_decay_exponent(self) -> Optional[float]:
        """Decay exponent p with Re(1/(1+Psi(xi))) ~ |xi|^-p at infinity.

        |Psi| grows like Re Psi, or like |xi| if b != 0 and that is faster.
        None in d >= 2 for a drift or a sum holding one: K depends on direction.
        """
        if self.dim > 1 and not self.radial:
            return None
        g = self._growth()
        return 2.0 * max(0.0, g, 1.0 if np.any(self.drift) else 0.0) - max(0.0, g)


@dataclass(frozen=True, kw_only=True)
class IsotropicStable(LevyExponent):
    """Psi(xi) = (scale * ||xi||)^alpha, rotation invariant."""

    alpha: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < _finite("alpha", self.alpha) <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if _finite("scale", self.scale) <= 0.0:
            raise ValueError("scale must be positive")

    def _radial(self, q):
        r = np.sqrt(q)  # in place after it: the bits of (scale * sqrt(q)) ** alpha
        return np.power(np.multiply(r, self.scale, out=r), self.alpha, out=r)

    def _growth(self):
        return self.alpha


@dataclass(frozen=True, kw_only=True)
class BrownianIsotropic(LevyExponent):
    """Psi(xi) = diffusivity * ||xi||^2 / 2 (standard Brownian motion at 1)."""

    diffusivity: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if _finite("diffusivity", self.diffusivity) <= 0.0:
            raise ValueError("diffusivity must be positive")

    def _radial(self, q):
        return 0.5 * self.diffusivity * q

    def _growth(self):
        return 2.0


@dataclass(frozen=True, kw_only=True)
class Skewed1DStable(LevyExponent):
    """One-dimensional stable exponent with skew beta.

    Psi(xi) = |scale*xi|^alpha * (1 - i beta sgn(xi) tan(pi alpha / 2)).
    alpha = 1 with beta != 0 is unsupported (the log correction term of
    that boundary case is excluded).  Its skew is not a drift.
    """

    alpha: float = 2.0
    beta: float = 0.0
    scale: float = 1.0
    radial = False

    def __post_init__(self):
        super().__post_init__()
        if self.dim != 1:
            raise ValueError("Skewed1DStable requires dim=1")
        if not 0.0 < _finite("alpha", self.alpha) <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not -1.0 <= _finite("beta", self.beta) <= 1.0:
            raise ValueError("beta must lie in [-1, 1]")
        if _finite("scale", self.scale) <= 0.0:
            raise ValueError("scale must be positive")
        if self.alpha == 1.0 and self.beta != 0.0:
            raise ValueError("alpha=1 with nonzero skew is unsupported")

    def skew_factor(self) -> float:
        """tan(pi alpha / 2) entering the imaginary part (0 when beta=0)."""
        if self.beta == 0.0 or self.alpha == 2.0:
            return 0.0
        return math.tan(math.pi * self.alpha / 2.0)

    def _eval(self, pts):
        x = pts[..., 0]
        mag = np.abs(self.scale * x) ** self.alpha
        return mag * (1.0 - 1j * self.beta * np.sign(x) * self.skew_factor())

    def _growth(self):
        return self.alpha


@dataclass(frozen=True, kw_only=True)
class PureDrift(LevyExponent):
    """Deterministic motion X(t) = b t; Psi(xi) = -i b . xi."""

    b: tuple = (1.0,)
    radial = False

    def __post_init__(self):
        b = self.b if isinstance(self.b, (tuple, list)) else np.ravel(self.b).tolist()
        object.__setattr__(self, "b", tuple(float(_finite("b", v)) for v in b))
        object.__setattr__(self, "dim", len(self.b))
        super().__post_init__()

    def _radial(self, q):
        return np.zeros_like(q)

    def _eval(self, pts):
        return -1j * (pts @ np.asarray(self.b))

    @property
    def drift(self):
        return np.asarray(self.b)

    def _growth(self):
        return -math.inf


@dataclass(frozen=True, kw_only=True)
class SumOf(LevyExponent):
    """Independent-sum exponent: pointwise sum of the component exponents."""

    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("SumOf needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise DimensionMismatchError("SumOf components must share dim")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "dim", comps[0].dim)
        object.__setattr__(self, "radial", all(c.radial for c in comps))
        super().__post_init__()

    def _radial(self, q):
        return sum(c._radial(q) for c in self.components)

    def _eval(self, pts):
        return sum(c._eval(pts) for c in self.components)

    @property
    def drift(self):
        return sum(c.drift for c in self.components)

    def _growth(self):
        return max(c._growth() for c in self.components)


_FAMILIES = {
    "IsotropicStable": IsotropicStable,
    "BrownianIsotropic": BrownianIsotropic,
    "Skewed1DStable": Skewed1DStable,
    "PureDrift": PureDrift,
}
_KEYS = {"family", "params", "dim"}  # the keys an exponent description may hold
# the params each family reads: the fields of its class
_PARAMS = {name: {f.name for f in fields(cls)}
           for name, cls in [*_FAMILIES.items(), ("SumOf", SumOf)]}


def exponent_from_json(desc: dict) -> LevyExponent:
    """Build an exponent from {family, params, dim} (see CLI docs).

    A given dim must be an integer >= 1 (a bool is not, 2.0 counts as 2),
    and a drift or a sum, which take their dim from their params, must
    match it.  A missing b of a drift or components of a sum is named, and
    so is a key the description does not read: a top-level key other than
    family, params and dim, or a param that is not a field of the family.
    """
    if not isinstance(desc, dict):
        raise ValueError(f"an exponent must be a family object, got {desc!r}")
    if not desc.keys() <= _KEYS:
        raise ValueError(f"an exponent does not read {sorted(desc.keys() - _KEYS)}")
    family = desc.get("family")
    params = dict(desc.get("params", {}))
    dim = desc.get("dim", params.pop("dim", None))
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, numbers.Real)
                            or not float(dim).is_integer() or dim < 1):
        raise ValueError(f"{family} dim must be an integer >= 1, got {dim!r}")
    if family != "SumOf" and family not in _FAMILIES:
        raise ValueError(f"unknown exponent family: {family!r}")
    read = _PARAMS[family]
    if not params.keys() <= read:
        raise ValueError(f"{family} does not read params {sorted(params.keys() - read)}")
    key = {"SumOf": "components", "PureDrift": "b"}.get(family)
    if key is not None and key not in params:
        raise ValueError(f"{family} needs params[{key!r}]")
    if family == "SumOf":
        psi = SumOf(components=tuple(exponent_from_json(c) for c in params["components"]))
    elif family == "PureDrift":
        psi = PureDrift(b=tuple(params["b"]))
    else:
        psi = _FAMILIES[family](dim=1 if dim is None else int(dim), **params)
    if dim is not None and psi.dim != dim:
        raise ValueError(f"{family} takes dim {psi.dim} from its params, not the given {dim}")
    return psi


@dataclass(frozen=True)
class ExponentVector:
    """The exponent tuple (Psi_1, ..., Psi_N) of an additive Levy process."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("need at least one component exponent")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise DimensionMismatchError("all components must share dim")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def _kernel(self, q: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """K at the points pts of squared radii q: radial components read q.
        Each factor Re z / |z|^2 is formed in place in the array of |z|."""
        out = None
        for comp in self.components:
            z = 1.0 + (comp._radial(q) if comp.radial else comp._eval(pts))
            factor = np.abs(z)
            np.square(factor, out=factor)
            np.divide(z.real, factor, out=factor)
            if out is None:
                out = factor
            else:
                out *= factor
        return out

    def kernel_values(self, xi) -> np.ndarray:
        """Vectorized K(xi) = prod_j (1 + Re Psi_j) / |1 + Psi_j|^2, in (0, 1]."""
        pts, lead = _as_points(xi, self.dim)
        return self._kernel(_squared_radius(pts), pts).reshape(lead)

    def kernel_radial(self, r) -> np.ndarray:
        """K(r e_1) from q = r^2, in the shape of r: kernel_values at (r, 0, ..., 0),
        bit for bit.  A component that is not radial is read at r in d = 1 only."""
        if self.dim > 1 and not all(c.radial for c in self.components):
            raise ValueError(f"K depends on the direction in d = {self.dim}")
        s = np.ravel(np.asarray(r, dtype=float))
        return self._kernel(s * s, s[:, None]).reshape(np.shape(r))

    def kernel_decay_exponent(self) -> Optional[float]:
        """Radial decay exponent of K at infinity, or None if uncertifiable."""
        decays = [comp.kernel_decay_exponent() for comp in self.components]
        return None if None in decays else sum(decays, 0.0)


def sector_constant(exp: LevyExponent, sample_grid: Sequence) -> float:
    """max over the grid of |Im Psi| / (1 + Re Psi).

    The sector condition with constant c < sqrt(2) holds on the grid iff the
    returned value is below sqrt(2).
    """
    grid = list(sample_grid)
    if not grid:
        raise ValueError("sample grid must be nonempty")
    vals = exp(np.asarray(grid, dtype=float))
    return float(np.max(np.abs(vals.imag) / (1.0 + vals.real)))
