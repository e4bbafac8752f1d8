"""Value distributions on [0, inf) and their hazard/reserve machinery.

Every distribution exposes four evaluators (cdf, pdf of the continuous
part, hazard, quantile) that accept scalars or numpy arrays. The cdf is
right-continuous; point masses are listed in `atoms` and the quantile maps
an atom's whole mass interval onto its location, which is what inverse-cdf
sampling needs.

The reserve price of a distribution is the x solving x * hazard(x) = 1,
i.e. the point where the virtual value x - 1/hazard(x) crosses zero. A
distribution's class is (r, phi): its `reserve` r and `phi` = F(r-), the
mass below r, each found once per instance. For any distribution with
nondecreasing hazard phi can never exceed 1 - 1/e; that cap is what makes
`GFamily` (which attains it) the extremal member of its class.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .numerics import bisect, bracket_root

# Universal cap on F(reserve-) for nondecreasing-hazard distributions.
ALPHA = 1.0 - 1.0 / math.e


def check_phi(phi: float, lo_open: bool = False) -> float:
    """phi = F(reserve-) checked against [0, 1-1/e], or (0, 1-1/e] with
    `lo_open`; a phi above 1-1/e by at most 1e-12 (rounding) is returned
    clamped to 1-1/e. Raises DomainError otherwise."""
    lo_ok = phi > 0.0 if lo_open else phi >= 0.0
    if not (lo_ok and phi <= ALPHA + 1e-12):
        raise DomainError(f"phi must lie in {'(' if lo_open else '['}0, 1-1/e], got {phi}")
    return min(phi, ALPHA)


def _elementwise(method):
    """`method(owner, x)` run on x as a float64 array of one or more
    dimensions; for a scalar x, element 0 of its result as a plain float."""

    @functools.wraps(method)
    def evaluator(owner, x):
        arr = np.asarray(x, dtype=np.float64)
        return method(owner, arr) if arr.ndim else float(method(owner, arr[None])[0])

    return evaluator


class ValueDistribution(ABC):
    """A nonnegative value distribution known through its evaluators.

    Subclasses provide closed-form cdf/pdf/quantile; `hazard` defaults to
    pdf/(1-cdf) but is overridden wherever a cleaner form exists. The type
    wraps each `cdf`, `pdf`, `hazard` and `quantile` a subclass defines:
    the method gets a float64 array of one or more dimensions, and a scalar
    call returns a plain float. Instances are immutable after construction.

    Contract: `quantile` is nondecreasing on [0, 1) in floating point, not
    only in exact arithmetic, so an order statistic of the uniforms maps to
    the same order statistic of the values. It maps [0, 1) to finite values
    at least +0.0, never -0.0, and acts elementwise whatever the memory
    layout of its input. At u = 1 a family with bounded support returns
    the top of its support; inputs outside [0, 1] are outside the contract.

    Contract: every evaluator acts elementwise, bit for bit: `cdf(xs)[i]`
    equals `cdf(xs[i])`, so a quadrature may evaluate a whole level of
    nodes in one call and get the floats of one call per node.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in ("cdf", "pdf", "hazard", "quantile"):
            if name in cls.__dict__:
                setattr(cls, name, _elementwise(cls.__dict__[name]))

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        """Point masses as (location, mass) pairs, ordered by location."""
        return ()

    @property
    def kinks(self) -> tuple[float, ...]:
        """Points where the cdf is not smooth, for a quadrature to break at:
        the atom locations, and whatever knots a family declares."""
        return tuple(loc for loc, _ in self.atoms)

    @functools.cached_property
    def reserve(self) -> float:
        """The revenue-optimal reserve price, the x solving x * hazard(x) = 1.

        Found on the first read and kept: bracketed by geometric expansion
        and bisected to an interval of width 1e-12. Families with a closed
        form override this. Raises NoRoot, on every read, when
        x * hazard(x) stays below 1 over the whole support.
        """

        def excess(x):
            return x * self.hazard(x) - 1.0

        # from the median; unbounded supports are truncated where 1-F
        # underflows any tolerance
        lo, hi = bracket_root(excess, self.quantile(0.5), self.quantile(1.0 - 1e-12))
        return bisect(excess, lo, hi)

    @functools.cached_property
    def phi(self) -> float:
        """F(r-) = P(value < reserve), the class coordinate of the paper's
        (r, phi) classes; found on the first read and kept."""
        return cdf_left(self, self.reserve)

    @abstractmethod
    def cdf(self, x):
        ...

    @abstractmethod
    def pdf(self, x):
        ...

    @abstractmethod
    def quantile(self, u):
        ...

    @_elementwise
    def hazard(self, x):
        surv = 1.0 - self.cdf(x)
        dens = self.pdf(x)
        out = np.full_like(surv, np.inf)
        ok = surv > 0.0
        out[ok] = dens[ok] / surv[ok]
        return out


@dataclass(frozen=True)
class Exponential(ValueDistribution):
    """Memoryless family; hazard is constant and equal to `rate`."""

    rate: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    @property
    def reserve(self):
        # constant hazard: x*h(x) = 1 at x = 1/rate
        return 1.0 / self.rate

    def cdf(self, x):
        return -np.expm1(-self.rate * np.maximum(x, 0.0))

    def pdf(self, x):
        return np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def hazard(self, x):
        return np.full(x.shape, self.rate)

    def quantile(self, u):
        # -log1p(-u) / rate, one operation at a time in one buffer: the same
        # bits without the three temporaries
        out = np.negative(u)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        out /= self.rate
        return out


@dataclass(frozen=True)
class Uniform(ValueDistribution):
    """Uniform on [0, hi]. `lo` is kept for the record format and must be 0."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.lo != 0.0:
            raise ValueError("support must start at 0")
        if not (math.isfinite(self.hi) and self.hi > 0.0):
            raise ValueError(f"hi must be positive and finite, got {self.hi}")

    @property
    def reserve(self):
        # x/(hi - x) = 1 at the midpoint
        return 0.5 * self.hi

    def cdf(self, x):
        return np.clip(x / self.hi, 0.0, 1.0)

    def pdf(self, x):
        return np.where((x >= 0.0) & (x < self.hi), 1.0 / self.hi, 0.0)

    def hazard(self, x):
        out = np.full(x.shape, np.inf)
        inside = x < self.hi
        out[inside] = 1.0 / (self.hi - x[inside])
        return out

    def quantile(self, u):
        return u * self.hi


@dataclass(frozen=True)
class GFamily(ValueDistribution):
    """Extremal nondecreasing-hazard family with reserve r and cdf(r) = phi.

    Three regimes: no mass below the knot t = r*(1 + ln(1-phi)), constant
    hazard 1/r from the knot up to r, and a thin linear slab of width eps
    just above r carrying the remaining 1-phi mass. Within the class of
    nondecreasing-hazard distributions sharing (r, phi), this cdf is the
    pointwise-lowest on [0, r], which makes the family the worst case for
    the below-reserve efficiency shortfall.

    phi may not exceed 1 - 1/e (the class is empty beyond that); a phi
    above it by at most 1e-12 is silently clamped to 1 - 1/e, so `phi`
    may read back smaller than given. eps defaults to 1e-6*r; the family
    keeps a nondecreasing hazard only for eps <= r.
    """

    # field() keeps the inherited `phi` property from being read as a default
    phi: float = field()
    r: float
    eps: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        object.__setattr__(self, "phi", check_phi(self.phi))
        if self.eps is None:
            object.__setattr__(self, "eps", 1e-6 * self.r)
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")

    @property
    def t_knot(self) -> float:
        """Lower edge of the constant-hazard regime, r*(1 + ln(1-phi))."""
        t = self.r * (1.0 + math.log1p(-self.phi))
        return min(self.r, max(0.0, t))

    @property
    def kinks(self):
        return (self.t_knot, self.r, self.r + self.eps)

    @property
    def reserve(self):
        return float(self.r)

    def cdf(self, x):
        t, r, eps, phi = self.t_knot, self.r, self.eps, self.phi
        out = np.zeros(x.shape)
        mid = (x >= t) & (x < r)
        out[mid] = -np.expm1(-(x[mid] - t) / r)
        slab = (x >= r) & (x < r + eps)
        out[slab] = phi + (1.0 - phi) * (x[slab] - r) / eps
        out[x >= r + eps] = 1.0
        return out

    def pdf(self, x):
        # the constant-hazard regime owns its right endpoint r, so the
        # hazard there is 1/r and the stored reserve satisfies x*h(x) = 1
        t, r, eps, phi = self.t_knot, self.r, self.eps, self.phi
        out = np.zeros(x.shape)
        mid = (x >= t) & (x <= r)
        out[mid] = np.exp(-(x[mid] - t) / r) / r
        slab = (x > r) & (x < r + eps)
        out[slab] = (1.0 - phi) / eps
        return out

    def hazard(self, x):
        t, r, eps = self.t_knot, self.r, self.eps
        out = np.zeros(x.shape)
        out[(x >= t) & (x <= r)] = 1.0 / r
        slab = (x > r) & (x < r + eps)
        out[slab] = 1.0 / (eps - (x[slab] - r))
        out[x >= r + eps] = np.inf
        return out

    def quantile(self, u):
        t, r, eps, phi = self.t_knot, self.r, self.eps, self.phi
        low = u <= phi
        # Both branches run over every element, each in its own operation
        # order, and a mask multiply keeps one. On [0, 1] both are finite:
        # the cap at r absorbs rounding an ulp above r and log1p(-1) = -inf.
        # So the other branch adds x * 0 = +-0, which leaves every kept
        # value, never -0.0, unchanged. Gathers and scatters by a random
        # mask cost several times this arithmetic.
        out = np.negative(u)
        with np.errstate(divide="ignore"):
            np.log1p(out, out=out)
        out *= r
        np.subtract(t, out, out=out)
        np.minimum(out, r, out=out)
        out *= low
        high = u - phi
        high *= eps
        high /= 1.0 - phi
        high += r
        high *= ~low
        out += high
        return out


@dataclass(frozen=True)
class PFamily(ValueDistribution):
    """Regular but not monotone-hazard: heavy lower tail, atom at the cap r.

    Below r the cdf is x/(x+eps) and the hazard 1/(x+eps) strictly
    decreases, while the virtual value is identically -eps, so the family
    is regular. The remaining eps/(r+eps) mass sits as an atom at r, and
    the reserve price equals r.
    """

    eps: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive and finite, got {self.r}")

    @property
    def atoms(self):
        return ((self.r, self.eps / (self.r + self.eps)),)

    @property
    def reserve(self):
        return float(self.r)

    def cdf(self, x):
        out = np.ones(x.shape)
        below = (x >= 0.0) & (x < self.r)
        out[below] = x[below] / (x[below] + self.eps)
        out[x < 0.0] = 0.0
        return out

    def pdf(self, x):
        out = np.zeros(x.shape)
        below = (x >= 0.0) & (x < self.r)
        out[below] = self.eps / (x[below] + self.eps) ** 2
        return out

    def hazard(self, x):
        out = np.full(x.shape, np.inf)
        below = x < self.r
        out[below] = 1.0 / (x[below] + self.eps)
        return out

    def quantile(self, u):
        out = np.full(u.shape, self.r)
        below = u < self.r / (self.r + self.eps)
        # capped at r: rounding may put the last u below the atom an ulp above it
        out[below] = np.minimum(self.eps * u[below] / (1.0 - u[below]), self.r)
        return out


@dataclass(frozen=True)
class MhrReport:
    """Outcome of a grid check for a nondecreasing hazard."""

    is_mhr: bool
    witness: tuple[float, float] | None


def reserve_price(dist: ValueDistribution) -> float:
    """`dist.reserve`, the revenue-optimal reserve, as a float."""
    return float(dist.reserve)


def _at_atom(x, loc):
    """Whether x (a float or an array) lies within 1e-12 * |loc| of an atom at loc."""
    return abs(x - loc) <= 1e-12 * abs(loc)


def cdf_left(dist: ValueDistribution, x: float) -> float:
    """F(x-) = P(value < x): cdf(x) minus any atom located at x."""
    return dist.cdf(x) - sum(m for loc, m in dist.atoms if _at_atom(x, loc))


@_elementwise
def virtual_value(dist: ValueDistribution, x):
    """Value adjusted by inverse hazard: x - 1/hazard(x).

    Zero exactly at the reserve price. Raises DomainError where the hazard
    vanishes (the virtual value is -inf there; callers treat such values
    as below any reserve).
    """
    h = dist.hazard(x)
    if np.any(h <= 0.0):
        raise DomainError("hazard is zero; virtual value is -inf")
    with np.errstate(divide="ignore"):
        return x - 1.0 / h


def _check_grid(grid_size) -> int:
    """A grid size as an int; ValueError unless an integer of at least 16."""
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 16:
        raise ValueError(f"grid_size must be an integer of at least 16, got {grid_size!r}")
    return int(grid_size)


def mhr_check(dist: ValueDistribution, grid_size: int = 256) -> MhrReport:
    """Test hazard monotonicity on a quantile-spaced grid avoiding atoms.

    Grid-based rather than symbolic so user-defined distributions, where
    only evaluators exist, can be checked too.
    """
    grid_size = _check_grid(grid_size)
    u = (np.arange(grid_size) + 0.5) / grid_size
    x = dist.quantile(u)
    keep = 1.0 - dist.cdf(x) > 1e-12
    for loc, _mass in dist.atoms:
        keep &= ~_at_atom(x, loc)
    x = np.unique(x[keep])
    h = dist.hazard(x)
    finite = np.isfinite(h)
    x, h = x[finite], h[finite]
    drops = np.nonzero(h[1:] < h[:-1] * (1.0 - 1e-9))[0]
    if drops.size == 0:
        return MhrReport(is_mhr=True, witness=None)
    i = int(drops[0])
    return MhrReport(is_mhr=False, witness=(float(x[i]), float(x[i + 1])))


def lemma1_check(dist: ValueDistribution) -> bool:
    """phi = F(r-), the mass below the reserve, never exceeds 1 - 1/e for
    nondecreasing hazards."""
    return dist.phi <= ALPHA + 1e-9


def domination_check(dist: ValueDistribution, grid_size: int = 256) -> bool:
    """Check that dist's cdf dominates its extremal class member on [0, r].

    Builds the GFamily sharing dist's reserve r and phi = F(r-), the mass
    below the reserve, and verifies cdf_dist(y) >= cdf_G(y) - 1e-9 on a
    grid over [0, r]. Holds for every nondecreasing-hazard distribution.
    """
    grid_size = _check_grid(grid_size)
    extremal = GFamily(phi=min(dist.phi, ALPHA), r=dist.reserve)
    y = np.linspace(0.0, dist.reserve, grid_size)
    return bool(np.all(dist.cdf(y) >= extremal.cdf(y) - 1e-9))


# The record format: {"family": tag, **fields of the family's dataclass}.
FAMILIES = {"exponential": Exponential, "uniform": Uniform, "g": GFamily, "p": PFamily}


def from_spec(record: dict) -> ValueDistribution:
    """Build a distribution from a tagged record, e.g. {"family": "g", ...}.

    Each field is an int or a float, not a bool, or null for absent; any
    other value raises ValueError, as the reports would echo it verbatim."""
    if not isinstance(record, dict) or "family" not in record:
        raise ValueError("distribution record must be a dict with a 'family' tag")
    family = record["family"]
    if not isinstance(family, str) or family not in FAMILIES:  # a list tag is unhashable
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    # a null field is an absent one, so it takes the dataclass default
    params = {k: v for k, v in record.items() if k != "family" and v is not None}
    for key, value in params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{family} field {key!r} must be a number, got {value!r}")
    try:
        return FAMILIES[family](**{k: float(v) for k, v in params.items()})
    except TypeError as exc:
        raise ValueError(f"bad parameters for family {family!r}: {exc}") from exc

