import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecheff.analysis import loss_numeric
from mecheff.distributions import (
    ALPHA,
    FAMILIES,
    Exponential,
    GFamily,
    PFamily,
    Uniform,
    ValueDistribution,
    cdf_left,
    domination_check,
    from_spec,
    lemma1_check,
    mhr_check,
    reserve_price,
    virtual_value,
)
from mecheff.errors import DomainError, NoRoot
from mecheff.numerics import adaptive_simpson
from test_benchmark_reference import load

CONTINUOUS = [
    Exponential(rate=1.0),
    Exponential(rate=3.5),
    Uniform(hi=1.0),
    Uniform(hi=4.0),
    GFamily(phi=0.5, r=1.0),
    GFamily(phi=ALPHA, r=2.0, eps=1e-6),
    GFamily(phi=0.1, r=0.3),
]

mhr_family = st.one_of(
    st.floats(0.05, 20.0).map(lambda r: Exponential(rate=r)),
    st.floats(0.05, 20.0).map(lambda h: Uniform(hi=h)),
    st.tuples(st.floats(1e-3, ALPHA), st.floats(0.05, 20.0)).map(
        lambda pr: GFamily(phi=pr[0], r=pr[1], eps=1e-6 * pr[1])
    ),
)


class NoClosedFormExp(ValueDistribution):
    """Exponential with mean `scale` seen only through evaluators; exercises
    the root finder and the pdf/(1-cdf) hazard."""

    def __init__(self, scale=1.0):
        self.scale = scale

    def cdf(self, x):
        return -np.expm1(-np.maximum(x, 0.0) / self.scale)

    def pdf(self, x):
        return np.exp(-np.maximum(x, 0.0) / self.scale) / self.scale

    def quantile(self, u):
        return -self.scale * np.log1p(-u)


class AtomAtZero(ValueDistribution):
    """A 60% atom at 0 plus 0.4 * Exp(1): the median is 0, so the root finder
    cannot start there; the hazard of the continuous part is 1."""

    atoms = ((0.0, 0.6),)

    def cdf(self, x):
        return 0.6 - 0.4 * np.expm1(-np.maximum(x, 0.0))

    def pdf(self, x):
        return 0.4 * np.exp(-np.maximum(x, 0.0))

    def quantile(self, u):
        return -np.log1p(-np.maximum(u - 0.6, 0.0) / 0.4)


@dataclass(frozen=True)
class BareWeibull(ValueDistribution):
    """Weibull of shape 3 in array code with no scalar handling at all: on a
    numpy scalar, `x ** 3.0` would call libm pow and differ from the array
    power in the last bit, so only the type's promotion keeps it elementwise."""

    shape: float = 3.0

    def cdf(self, x):
        return -np.expm1(-(np.maximum(x, 0.0) ** self.shape))

    def pdf(self, x):
        x = np.maximum(x, 0.0)
        return self.shape * x ** (self.shape - 1.0) * np.exp(-(x**self.shape))

    def quantile(self, u):
        return (-np.log1p(-u)) ** (1.0 / self.shape)


class SubUnitHazard(ValueDistribution):
    """Pareto-type tail with x*h(x) = x/(2(1+x)) <= 1/2: no reserve exists."""

    def cdf(self, x):
        return 1.0 - 1.0 / np.sqrt(1.0 + np.maximum(x, 0.0))

    def pdf(self, x):
        return 0.5 * (1.0 + np.maximum(x, 0.0)) ** -1.5

    def quantile(self, u):
        return (1.0 - u) ** -2.0 - 1.0


# --- reserve price -----------------------------------------------------------


def test_reserve_examples():
    assert reserve_price(Exponential(rate=1.0)) == pytest.approx(1.0, abs=1e-10)
    assert reserve_price(Uniform(hi=1.0)) == pytest.approx(0.5, abs=1e-10)
    assert reserve_price(GFamily(phi=0.5, r=2.0, eps=1e-6)) == 2.0
    assert reserve_price(PFamily(eps=0.1, r=1.0)) == 1.0


def test_reserve_root_finder_path():
    r = reserve_price(NoClosedFormExp())
    assert r == pytest.approx(1.0, abs=1e-10)
    d = NoClosedFormExp()
    assert abs(r * float(d.hazard(r)) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "make, expected",
    [
        # the median lies above the root: the bracket grows downward
        (lambda: load("workloads").Weibull(shape=2.0), 0.7071067811866818),
        # F(r) > 1/2: the bracket grows upward, at three scales
        (lambda: NoClosedFormExp(1e-3), 0.001000000000096392),
        (lambda: NoClosedFormExp(1.0), 1.0000000000003069),
        (lambda: NoClosedFormExp(1e3), 999.9999999999995),
        # a median of 0 is no start: the bracket starts at 1e-6
        (AtomAtZero, 1.000000000000148),
    ],
    ids=["weibull-down", "exp-1e-3-up", "exp-1-up", "exp-1e3-up", "atom-at-0-fallback"],
)
def test_reserve_root_finder_bits(make, expected):
    assert reserve_price(make()) == expected


def test_reserve_no_root():
    with pytest.raises(NoRoot):
        reserve_price(SubUnitHazard())


def test_lemma1_no_root_propagates():
    with pytest.raises(NoRoot):
        lemma1_check(SubUnitHazard())
    with pytest.raises(NoRoot):
        domination_check(SubUnitHazard())


# --- the class (reserve, phi) and the kinks, each found once per instance -----


def _counting_hazard(monkeypatch, cls):
    """Count the calls of cls.hazard from now on."""
    calls = []
    hazard = cls.hazard

    def counting(self, x):
        calls.append(np.size(x))
        return hazard(self, x)

    monkeypatch.setattr(cls, "hazard", counting)
    return calls


@pytest.mark.parametrize(
    "family", [lambda: NoClosedFormExp, lambda: load("workloads").Weibull], ids=["no-closed-form-exp", "weibull"]
)
def test_reserve_bisects_once_per_instance(family, monkeypatch):
    make = family()
    dist = make()
    calls = _counting_hazard(monkeypatch, make)
    r = dist.reserve
    bisected = len(calls)
    assert bisected > 0
    assert dist.reserve == r and dist.phi == cdf_left(dist, r) and reserve_price(dist) == r
    assert loss_numeric(dist, 2) == loss_numeric(dist, 2)
    assert len(calls) == bisected
    # the kept reserve belongs to its instance
    assert make().reserve == r
    assert len(calls) == 2 * bisected


@pytest.mark.parametrize("dist", [Exponential(2.0), Uniform(hi=3.0), GFamily(phi=0.3, r=2.0), PFamily(eps=0.5, r=1.0)])
def test_closed_form_reserves_never_call_hazard(dist, monkeypatch):
    calls = _counting_hazard(monkeypatch, type(dist))
    assert reserve_price(dist) == dist.reserve
    assert dist.phi == cdf_left(dist, dist.reserve)
    assert calls == []


def test_no_root_is_raised_on_every_read():
    dist = SubUnitHazard()
    for _ in range(2):
        with pytest.raises(NoRoot):
            dist.reserve
        with pytest.raises(NoRoot):
            dist.phi
    assert "reserve" not in vars(dist) and "phi" not in vars(dist)


@pytest.mark.parametrize(
    "dist",
    [
        *CONTINUOUS,
        GFamily(phi=ALPHA + 1e-13, r=1.0),  # clamped: the field reads 1-1/e
        GFamily(phi=0.0, r=1.0),
        PFamily(eps=0.5, r=1.0),
        PFamily(eps=1.0, r=2.0),
        NoClosedFormExp(3.0),
        AtomAtZero(),
        BareWeibull(),
    ],
)
def test_phi_is_mass_below_the_reserve(dist):
    # G's phi is its own dataclass field; every other family's is computed
    assert dist.phi == cdf_left(dist, dist.reserve)


def test_reserve_is_a_float_for_int_fields():
    for dist in (GFamily(phi=0.5, r=2), PFamily(eps=1, r=2), Exponential(rate=2), Uniform(hi=3)):
        assert type(dist.reserve) is float and type(reserve_price(dist)) is float, dist


def test_kinks_are_declared_by_the_family():
    g = GFamily(phi=0.5, r=2.0, eps=1e-3)
    assert g.kinks == (g.t_knot, 2.0, 2.0 + 1e-3)
    assert PFamily(eps=0.5, r=1.0).kinks == (1.0,)
    assert AtomAtZero().kinks == (0.0,)
    assert Exponential(1.0).kinks == () and Uniform(hi=1.0).kinks == ()


def test_checks_use_mass_below_an_atom_at_the_reserve():
    # P(eps=1, r=1): F(r) = 1 but F(r-) = 1/2, below 1-1/e, so its class
    # is (1, 1/2); with the atom counted the lemma would fail
    p = PFamily(eps=1.0, r=1.0)
    assert p.cdf(1.0) == 1.0 and p.phi == 0.5
    assert lemma1_check(p)
    assert domination_check(p)
    # at eps = 0.3, F(r-) = 1/1.3 exceeds 1-1/e: P is not MHR
    p = PFamily(eps=0.3, r=1.0)
    assert p.phi > ALPHA
    assert not lemma1_check(p)
    assert domination_check(p)


# --- virtual value -----------------------------------------------------------


def test_virtual_value_examples():
    assert virtual_value(Exponential(1.0), 1.0) == pytest.approx(0.0, abs=1e-9)
    assert virtual_value(Uniform(hi=1.0), 0.75) == pytest.approx(0.5, abs=1e-12)
    assert virtual_value(PFamily(eps=0.1, r=1.0), 0.5) == pytest.approx(-0.1, abs=1e-12)


def test_virtual_value_zero_at_reserve():
    for dist in CONTINUOUS:
        r = reserve_price(dist)
        assert virtual_value(dist, r) == pytest.approx(0.0, abs=1e-9), dist


def test_virtual_value_zero_hazard_raises():
    g = GFamily(phi=0.5, r=1.0)
    assert g.t_knot > 0.0
    with pytest.raises(DomainError):
        virtual_value(g, 0.5 * g.t_knot)


@given(mhr_family)
@settings(max_examples=50, deadline=None)
def test_virtual_value_nondecreasing_on_mhr(dist):
    u = np.linspace(0.01, 0.97, 97)
    x = np.asarray(dist.quantile(u))
    lo = dist.t_knot if isinstance(dist, GFamily) else 0.0
    x = x[x > lo + 1e-12]
    psi = np.asarray(virtual_value(dist, x))
    assert np.all(np.diff(psi) >= -1e-9)


# --- hazard monotonicity -----------------------------------------------------


def test_mhr_check_examples():
    assert mhr_check(Exponential(1.0), 256).is_mhr
    assert mhr_check(GFamily(phi=0.5, r=1.0, eps=1e-6), 256).is_mhr
    report = mhr_check(PFamily(eps=0.1, r=1.0), 256)
    assert not report.is_mhr
    assert report.witness is not None
    x1, x2 = report.witness
    p = PFamily(eps=0.1, r=1.0)
    assert x1 < x2
    assert float(p.hazard(x1)) - float(p.hazard(x2)) > 1e-9


@pytest.mark.parametrize("scale", [1e-9, 1e-8, 1e-3, 1.0, 1e3, 1e9, 1e12])
def test_mhr_check_is_scale_free(scale):
    # the hazard scales like 1/scale, so the drop tolerance must be relative
    assert mhr_check(NoClosedFormExp(scale)).is_mhr
    assert not mhr_check(PFamily(eps=0.5 * scale, r=scale)).is_mhr


def test_mhr_check_grid_too_small():
    with pytest.raises(ValueError):
        mhr_check(Exponential(1.0), 8)


@pytest.mark.parametrize("grid", [0, 15, 16.5, 256.0, "256", None])
def test_grid_checks_refuse_bad_grids(grid):
    # 0 or 1 points checked nothing, or only y = 0, and 16.5 was recorded as is
    for check in (mhr_check, domination_check):
        with pytest.raises(ValueError, match="grid_size must be an integer of at least 16"):
            check(Exponential(1.0), grid)
    assert mhr_check(Exponential(1.0), np.int64(16)).is_mhr
    assert domination_check(Exponential(1.0), np.int64(16))


@pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e13])
def test_atom_match_is_scale_free(scale):
    # an atom matches within 1e-12 of its location relative to it: the old
    # absolute 1e-12 below 1 took every grid point of PFamily(1e-15, 1e-13)
    # for the atom, so mhr_check called it MHR, and F(5e-13-) read 0.990
    unit, p = PFamily(eps=0.01, r=1.0), PFamily(eps=0.01 * scale, r=scale)
    assert not mhr_check(p).is_mhr and not mhr_check(unit).is_mhr
    for x in (0.5, 1.0, 5.0):
        assert cdf_left(p, x * scale) == pytest.approx(cdf_left(unit, x), rel=1e-12), x
    assert cdf_left(p, 5.0 * scale) == 1.0


def test_mhr_witness_absent_when_true():
    report = mhr_check(Uniform(hi=3.0), 64)
    assert report.is_mhr and report.witness is None


# --- cdf cap at the reserve and pointwise domination -------------------------


def test_lemma1_examples():
    assert lemma1_check(Exponential(1.0))
    assert float(Exponential(1.0).cdf(1.0)) == pytest.approx(ALPHA, abs=1e-12)
    assert lemma1_check(Uniform(hi=1.0))
    assert float(Uniform(hi=1.0).cdf(0.5)) == 0.5
    assert lemma1_check(GFamily(phi=ALPHA, r=1.0, eps=1e-6))


@given(mhr_family)
@settings(max_examples=80, deadline=None)
def test_lemma1_universal(dist):
    assert lemma1_check(dist)


def test_domination_examples():
    exp = Exponential(1.0)
    assert domination_check(exp, 256)
    # the exponential is itself the extremal member: equality on [0, r]
    y = np.linspace(0.0, 1.0, 257)
    g = GFamily(phi=float(exp.cdf(1.0)), r=1.0)
    assert np.max(np.abs(np.asarray(exp.cdf(y)) - np.asarray(g.cdf(y)))) <= 1e-9
    assert domination_check(Uniform(hi=1.0), 256)
    assert domination_check(GFamily(phi=0.4, r=3.0, eps=1e-6), 256)


@given(mhr_family)
@settings(max_examples=60, deadline=None)
def test_domination_universal(dist):
    assert domination_check(dist, 128)


# --- sampling and quantile/cdf consistency ------------------------------------


def test_sample_examples():
    assert Exponential(1.0).quantile(0.0) == 0.0
    assert Uniform(hi=1.0).quantile(0.25) == 0.25
    # the atom holds everything past F(r-) = 1 - 0.1/1.1
    assert PFamily(eps=0.1, r=1.0).quantile(0.95) == 1.0


def test_quantile_cdf_roundtrip():
    u = np.linspace(1e-6, 1.0 - 1e-6, 501)
    for dist in CONTINUOUS:
        x = np.asarray(dist.quantile(u))
        assert np.max(np.abs(np.asarray(dist.cdf(x)) - u)) < 1e-10, dist
    # heavy-tail family: identity below the atom
    p = PFamily(eps=0.5, r=2.0)
    u_below = u[u < 2.0 / 2.5]
    x = np.asarray(p.quantile(u_below))
    assert np.max(np.abs(np.asarray(p.cdf(x)) - u_below)) < 1e-10


def test_quantile_monotone_and_atom_mapping():
    p = PFamily(eps=0.1, r=1.0)
    u = np.linspace(0.0, 0.999999, 2001)
    x = np.asarray(p.quantile(u))
    assert np.all(np.diff(x) >= 0.0)
    thresh = 1.0 / 1.1
    assert np.all(x[u >= thresh] == 1.0)


# parameter draws for each family of the record format
FAMILY_DRAWS = {
    "exponential": st.builds(Exponential, rate=st.floats(1e-3, 1e3)),
    "uniform": st.builds(Uniform, hi=st.floats(1e-3, 1e3)),
    "g": st.builds(
        GFamily,
        phi=st.floats(0.0, ALPHA),
        r=st.floats(1e-3, 1e3),
        eps=st.none() | st.floats(1e-9, 1.0),
    ),
    "p": st.builds(PFamily, eps=st.floats(1e-6, 1e3), r=st.floats(1e-3, 1e3)),
}


def branch_ulps(dist):
    """The ulps around F(r-) and F(r), where the families switch branches."""
    r = reserve_price(dist)
    edges = np.array([cdf_left(dist, r), float(dist.cdf(r))])
    return (edges[:, None] + np.arange(-4, 5) * np.spacing(edges)[:, None]).ravel()


@given(
    st.sampled_from(sorted(FAMILIES)).flatmap(lambda tag: FAMILY_DRAWS[tag]),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_quantile_nondecreasing(dist, draws):
    u = np.sort(np.concatenate([[0.0], draws, branch_ulps(dist)]))
    x = np.asarray(dist.quantile(u[(u >= 0.0) & (u < 1.0)]))
    assert np.all(np.diff(x) >= 0.0), dist


# several parameters per built-in family, extremes included
QUANTILE_CASES = [
    Exponential(1.0),
    Exponential(1e-3),
    Exponential(1e9),
    Uniform(hi=1.0),
    Uniform(hi=1e-3),
    Uniform(hi=1e3),
    GFamily(phi=ALPHA, r=1.0),
    GFamily(phi=0.0, r=1.0),
    GFamily(phi=0.3, r=1e-3, eps=1e-9),
    GFamily(phi=0.5, r=1e3, eps=1.0),
    PFamily(eps=0.5, r=1.0),
    PFamily(eps=1e-6, r=1e-3),
    PFamily(eps=1e3, r=1e3),
]
assert {type(dist) for dist in QUANTILE_CASES} == set(FAMILIES.values())


def quantile_points(dist, rng, size):
    """`size` points of [0, 1): u = 0, 1e-300, the largest double below 1 and
    the ulps around the family's branch points, then uniform draws."""
    near = branch_ulps(dist)
    fixed = np.concatenate([[0.0, 1e-300, np.nextafter(1.0, 0.0)], near[(near >= 0.0) & (near < 1.0)]])
    return np.concatenate([fixed, rng.random(size - len(fixed))])


@pytest.mark.parametrize("dist", QUANTILE_CASES, ids=repr)
def test_quantile_is_finite_and_never_negative_zero(dist):
    # `simulate._second_price` multiplies a value by its winner mask, which
    # equals np.where(mask, value, 0.0) only for finite values >= +0.0
    u = quantile_points(dist, np.random.default_rng(5), 4096)
    for x in (np.asarray(dist.quantile(u)), np.array([dist.quantile(float(v)) for v in u[:3]])):
        assert np.all(np.isfinite(x)), dist
        assert np.all(x >= 0.0) and not np.any(np.signbit(x)), dist


@pytest.mark.parametrize("dist", QUANTILE_CASES, ids=repr)
@pytest.mark.parametrize("t", range(1, 6))
def test_quantile_does_not_depend_on_layout(dist, t):
    # `simulate._select` maps its t+1 registers stacked as rows, so a
    # register block must map to the same bits in either memory layout
    rng = np.random.default_rng(t)
    u = rng.permutation(quantile_points(dist, rng, 16384 * (t + 1)))
    block = np.ascontiguousarray(np.sort(u.reshape(16384, t + 1), axis=1)[:, ::-1])
    rows_first = np.asarray(dist.quantile(block))
    strided = np.empty((t + 1, 2 * 16384))
    strided[:, ::2] = block.T
    for registers in (block.T, np.ascontiguousarray(block.T), strided[:, ::2]):
        assert np.asarray(dist.quantile(registers)).T.tobytes() == rows_first.tobytes()


@pytest.mark.parametrize("rate", [1e-9, 1.0, 1e9])
@pytest.mark.parametrize("t", [1, 2, 5])
def test_exponential_quantile_in_one_buffer_matches_expression(rate, t):
    # the in-place steps are -log1p(-u) / rate's operations in its order, so
    # the bits match the expression on a scalar, a 1-D array and register
    # blocks in C, Fortran and step-2 layouts, and no value is -0.0
    dist = Exponential(rate)
    u = quantile_points(dist, np.random.default_rng(t), 4096 * (t + 1))
    for v in u[:5]:  # u = 0, 1e-300, the largest double below 1, then draws
        assert np.float64(dist.quantile(float(v))).tobytes() == (-np.log1p(-v[None]) / rate).tobytes()
    rows = u.reshape(t + 1, 4096)
    strided = np.empty((t + 1, 2 * 4096))
    strided[:, ::2] = rows
    for block in (u, rows, np.asfortranarray(rows), strided[:, ::2]):
        x = dist.quantile(block)
        assert x.tobytes() == (-np.log1p(-block) / rate).tobytes(), block.flags
        assert not np.any(np.signbit(x))


ELEMENTWISE_CASES = [
    Exponential(1.0),
    Exponential(1e-3),
    Uniform(hi=1.0),
    Uniform(hi=1e3),
    GFamily(phi=0.63, r=1.0),
    GFamily(phi=0.4, r=1.5),
    GFamily(phi=0.3, r=1e-3, eps=1e-9),
    PFamily(eps=0.5, r=1.0),
    PFamily(eps=1e-6, r=1e-3),
    "weibull",
    BareWeibull(),
]


@pytest.mark.parametrize("dist", ELEMENTWISE_CASES, ids=repr)
def test_cdf_and_pdf_act_elementwise(dist):
    # `analysis.loss_numeric` evaluates each quadrature level's nodes in one
    # array call and must get the bits of one scalar call per node. The type
    # promotes every subclass's scalar input, so hazard and quantile, the
    # benchmark's Weibull and a class with no scalar code of its own obey too.
    if dist == "weibull":
        dist = load("workloads").Weibull()
    r = reserve_price(dist)
    special = [0.0, r, *(loc for loc, _ in dist.atoms)]
    if isinstance(dist, GFamily):
        special += [dist.t_knot, r + dist.eps]
    if isinstance(dist, Uniform):
        special.append(dist.hi)
    special = np.array(special)
    rng = np.random.default_rng(11)
    xs = np.concatenate(
        [special, np.nextafter(special, -np.inf), np.nextafter(special, np.inf), np.linspace(0.0, r, 2500)]
    )
    xs = np.concatenate([xs, r * rng.random(5000 - len(xs))])
    us = quantile_points(dist, rng, 2000)  # u = 0 and the ulps around the branch points
    for method, points in ((dist.cdf, xs), (dist.pdf, xs), (dist.hazard, xs), (dist.quantile, us)):
        per_point = [method(float(p)) for p in points]
        assert all(type(v) is float for v in per_point), method
        assert method(points).tobytes() == np.array(per_point).tobytes(), method


def g_quantile_masked(dist, u):
    """`GFamily.quantile` on an array, each branch evaluated only where its
    mask holds."""
    t, r, eps, phi = dist.t_knot, dist.r, dist.eps, dist.phi
    out = np.empty(u.shape)
    low = u <= phi
    out[low] = np.minimum(t - r * np.log1p(-u[low]), r)
    out[~low] = r + eps * (u[~low] - phi) / (1.0 - phi)
    return out


@st.composite
def g_family_points(draw):
    """(dist, u, t): a G family with r across 18 decades and eps from 1e-12 r
    to 1e3 r, and u holding 1.0 and its quantile points, then uniform draws
    up to t+1 rows of 64."""
    phi = draw(st.sampled_from([0.0, 1e-12, 0.3, 0.5, ALPHA]) | st.floats(0.0, ALPHA))
    r = 10.0 ** draw(st.floats(-9.0, 9.0))
    dist = GFamily(phi=phi, r=r, eps=r * 10.0 ** draw(st.floats(-12.0, 3.0)))
    t = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dist, np.append(1.0, quantile_points(dist, rng, 64 * (t + 1) - 1)), t


@given(g_family_points())
@settings(max_examples=300, deadline=None)
def test_g_quantile_matches_masked_form(case):
    # the branch-free quantile keeps each branch's operations in order and
    # adds the other branch times zero, so it equals the masked form bit for bit
    dist, u, t = case
    for v in u[:22]:  # 1.0 and the at most 21 fixed points of quantile_points
        assert np.float64(dist.quantile(float(v))).tobytes() == g_quantile_masked(dist, v[None]).tobytes()
    assert np.asarray(dist.quantile(u)).tobytes() == g_quantile_masked(dist, u).tobytes()
    rows = np.random.default_rng(t).permutation(u).reshape(t + 1, 64)
    strided = np.empty((t + 1, 128))
    strided[:, ::2] = rows
    expected = g_quantile_masked(dist, rows).tobytes()
    for block in (rows, np.asfortranarray(rows), strided[:, ::2]):
        assert np.ascontiguousarray(dist.quantile(block)).tobytes() == expected, block.flags


@pytest.mark.parametrize("phi", [0.0, ALPHA])
@pytest.mark.parametrize("r, eps", [(1.0, None), (1e-3, 1e-9), (1e3, 1.0), (5.0, 7.0)])
def test_g_quantile_at_one_is_top_of_slab(phi, r, eps):
    # log1p(-1) = -inf in the low branch, which the cap at r absorbs silently
    g = GFamily(phi=phi, r=r, eps=eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.quantile(1.0) == g.r + g.eps
        assert np.asarray(g.quantile(np.array([0.5, 1.0])))[1] == g.r + g.eps


def test_hazard_identity():
    for dist in CONTINUOUS:
        u = np.linspace(0.01, 0.95, 95)
        x = np.asarray(dist.quantile(u))
        surv = 1.0 - np.asarray(dist.cdf(x))
        keep = surv > 1e-12
        lhs = np.asarray(dist.hazard(x))[keep]
        rhs = np.asarray(dist.pdf(x))[keep] / surv[keep]
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12), dist


def test_total_mass():
    for dist in CONTINUOUS + [PFamily(eps=0.1, r=1.0), PFamily(eps=3.0, r=0.5)]:
        hi = float(dist.quantile(1.0 - 1e-12))  # leaves out at most 1e-12 of mass
        breaks = [loc for loc, _ in dist.atoms]
        if isinstance(dist, GFamily):
            breaks += [dist.t_knot, dist.r]
        cont = adaptive_simpson(lambda x: float(dist.pdf(x)), 0.0, hi, tol=1e-10, breakpoints=breaks)
        atom_mass = sum(m for _, m in dist.atoms)
        assert cont + atom_mass == pytest.approx(1.0, abs=1e-8), dist


def test_sampling_reproduces_cdf_ks():
    # Kolmogorov-Smirnov distance below 0.01 at n = 1e6 (invariant)
    rng = np.random.default_rng(2718281828)
    n = 1_000_000
    u = rng.random(n)
    for dist in (Exponential(1.0), Uniform(hi=2.0), GFamily(phi=ALPHA, r=1.0, eps=1e-6)):
        x = np.sort(np.asarray(dist.quantile(u)))
        f = np.asarray(dist.cdf(x))
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - f)), np.max(np.abs(f - emp_lo)))
        assert ks < 0.01, dist
    # atom frequency matches its mass
    p = PFamily(eps=0.1, r=1.0)
    x = np.asarray(p.quantile(u))
    freq = np.mean(x == 1.0)
    mass = p.atoms[0][1]
    assert abs(freq - mass) < 4.0 * math.sqrt(mass * (1.0 - mass) / n)


# --- family-specific structure -------------------------------------------------


def test_g_family_knots_and_edges():
    g = GFamily(phi=0.5, r=2.0, eps=1e-4)
    assert g.t_knot == pytest.approx(2.0 * (1.0 + math.log(0.5)), abs=1e-12)
    assert 0.0 <= g.t_knot <= g.r
    assert float(g.cdf(g.t_knot)) == 0.0
    assert float(g.cdf(2.0)) == pytest.approx(0.5, abs=1e-12)
    assert float(g.cdf(2.0 + 1e-4)) == 1.0


def test_g_family_phi_zero_degenerates_to_slab():
    g = GFamily(phi=0.0, r=1.0, eps=1e-6)
    assert g.t_knot == 1.0
    assert float(g.cdf(1.0)) == 0.0
    assert float(g.cdf(1.0 + 1e-6)) == 1.0
    assert float(g.quantile(0.5)) == pytest.approx(1.0 + 0.5e-6, abs=1e-12)


def test_g_family_rejects_phi_beyond_cap():
    with pytest.raises(DomainError):
        GFamily(phi=ALPHA + 1e-3, r=1.0)
    # boundary itself is fine
    GFamily(phi=ALPHA, r=1.0)


def test_g_family_default_eps():
    g = GFamily(phi=0.3, r=4.0)
    assert g.eps == pytest.approx(4e-6)


def test_p_family_structure():
    p = PFamily(eps=0.1, r=1.0)
    assert p.atoms == ((1.0, pytest.approx(0.1 / 1.1)),)
    assert float(p.cdf(0.9999999)) < 1.0
    assert float(p.cdf(1.0)) == 1.0  # right-continuous through the atom
    x = np.linspace(0.0, 0.99, 100)
    h = np.asarray(p.hazard(x))
    assert np.all(np.diff(h) < 0.0)  # strictly decreasing hazard


def test_bad_family_params():
    with pytest.raises(ValueError):
        Exponential(rate=0.0)
    with pytest.raises(ValueError):
        Uniform(lo=0.5, hi=1.0)
    with pytest.raises(ValueError):
        GFamily(phi=0.2, r=-1.0)
    with pytest.raises(ValueError):
        PFamily(eps=0.0, r=1.0)


# --- record format -------------------------------------------------------------


def test_from_spec_records():
    assert from_spec({"family": "exponential", "rate": 2.0}) == Exponential(rate=2.0)
    assert from_spec({"family": "uniform", "lo": 0, "hi": 1}) == Uniform(lo=0.0, hi=1.0)
    assert from_spec({"family": "g", "phi": 0.5, "r": 1.0, "eps": 1e-6}) == GFamily(
        phi=0.5, r=1.0, eps=1e-6
    )
    assert from_spec({"family": "p", "eps": 0.1, "r": 1.0}) == PFamily(eps=0.1, r=1.0)
    # a null field takes the dataclass default
    assert from_spec({"family": "g", "phi": 0.5, "r": 1.0, "eps": None}) == GFamily(phi=0.5, r=1.0)


def test_spec_roundtrip():
    records = [
        (Exponential(2.0), [("family", "exponential"), ("rate", 2.0)]),
        (Uniform(hi=3.0), [("family", "uniform"), ("lo", 0.0), ("hi", 3.0)]),
        (GFamily(phi=0.2, r=1.5), [("family", "g"), ("phi", 0.2), ("r", 1.5), ("eps", 1.5e-6)]),
        (PFamily(eps=0.2, r=2.0), [("family", "p"), ("eps", 0.2), ("r", 2.0)]),
    ]
    assert {type(dist) for dist, _ in records} == set(FAMILIES.values())
    for dist, items in records:
        assert from_spec(dict(items)) == dist


def test_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        from_spec({"family": "cauchy"})
    with pytest.raises(ValueError):
        from_spec({"rate": 1.0})
    with pytest.raises(ValueError):
        from_spec({"family": "g", "phi": 0.5})
    with pytest.raises(ValueError):
        from_spec({"family": "g", "phi": [0.5], "r": 1.0})
    # a tag that is no string is no family, not an unhashable key
    for tag in (["g"], {"family": "g"}):
        with pytest.raises(ValueError, match="unknown family"):
            from_spec({"family": tag, "phi": 0.5, "r": 1.0})
    # a bool or a number's text is not a number (null, above, means absent)
    for value in (True, False, "2", "nan", {"v": 1}):
        with pytest.raises(ValueError):
            from_spec({"family": "uniform", "hi": value})
        with pytest.raises(ValueError):
            from_spec({"family": "exponential", "rate": value})


def test_cdf_left_removes_atom_at_point():
    p = PFamily(eps=0.5, r=1.0)
    assert cdf_left(p, 1.0) == pytest.approx(1.0 / 1.5, rel=1e-15)
    assert p.cdf(1.0) == 1.0
    assert cdf_left(p, 0.5) == p.cdf(0.5)  # no atom there
    e = Exponential(rate=1.0)
    assert cdf_left(e, 1.0) == e.cdf(1.0)
