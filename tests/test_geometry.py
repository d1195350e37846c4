import math

import numpy as np
import pytest

from homogbc.geometry import (DomainSpec, classify_direction, equidist_ratio,
                              iddc_audit, in_D_delta)

SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize("v,kind,m", [
    ((0.6, 0.8), "rational", (3, 4)),
    ((1 / SQRT2, 1 / SQRT2), "rational", (1, 1)),
    ((0.0, 1.0), "rational", (0, 1)),
    ((1.0, 2.0), "rational", (1, 2)),
])
def test_classify_rational(v, kind, m):
    v = np.asarray(v, float) / np.linalg.norm(v)
    d = classify_direction(v)
    assert d.kind == kind
    assert tuple(d.m) == m


def test_classify_irrational_sqrt2():
    v = np.array([1.0, SQRT2])
    d = classify_direction(v / np.linalg.norm(v), max_denominator=10 ** 6)
    assert d.kind == "irrational"
    assert d.m is None


def test_classify_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        d1 = classify_direction(v)
        for c in (0.1, 7.3):
            d2 = classify_direction(c * v)
            assert d1.kind == d2.kind
            if d1.m is not None:
                assert tuple(d1.m) == tuple(d2.m)


@pytest.mark.parametrize("m,delta,member", [
    ((3, 4), 0.5, True),
    ((1, 1), 0.5, False),
    ((1, 0), 0.9, False),
])
def test_in_D_delta(m, delta, member):
    v = np.asarray(m, float)
    d = classify_direction(v / np.linalg.norm(v))
    assert in_D_delta(d, delta) is member


def test_in_D_delta_vacuous_for_irrational():
    d = classify_direction(np.array([1.0, SQRT2]) / math.sqrt(3.0),
                           max_denominator=10 ** 6)
    assert in_D_delta(d, 0.5) is True


def test_equidist_golden_ratio():
    phi = (1 + math.sqrt(5)) / 2
    d = classify_direction(np.array([1.0, phi]) / np.linalg.norm([1.0, phi]))
    res = equidist_ratio(d, 0.1, 0.0, 1000)
    assert abs(res["ratio"] - 0.1) <= 0.02


def test_equidist_rational_zero_window():
    d = classify_direction(np.array([1.0, 2.0]) / math.sqrt(5.0))
    res = equidist_ratio(d, 0.1, 0.2, 100)
    assert res["A"] == 0
    assert res["ratio"] == 0.0


def test_equidist_full_window():
    d = classify_direction(np.array([1.0, SQRT2]) / math.sqrt(3.0),
                           max_denominator=10 ** 6)
    res = equidist_ratio(d, 1.0, 0.0, 50)
    assert res["ratio"] == 1.0


def test_equidist_count_additivity():
    phi = (1 + math.sqrt(5)) / 2
    d = classify_direction(np.array([1.0, phi]) / np.linalg.norm([1.0, phi]))
    a = equidist_ratio(d, 0.07, 0.1, 300)
    b = equidist_ratio(d, 0.05, 0.17, 300)
    c = equidist_ratio(d, 0.12, 0.1, 300)
    assert a["A"] + b["A"] == c["A"]
    assert a["N"] == b["N"] == c["N"]


def test_equidist_error_shrinks_with_R():
    phi = (1 + math.sqrt(5)) / 2
    d = classify_direction(np.array([1.0, phi]) / np.linalg.norm([1.0, phi]))
    for R in (100, 300, 1000):
        res = equidist_ratio(d, 0.1, 0.0, R)
        assert abs(res["ratio"] - 0.1) <= 2.0 / math.sqrt(res["N"])


def test_disk_sdf_project_normal():
    dom = DomainSpec.disk((1.0, -2.0), 0.5)
    x = np.array([1.0, -1.3])
    assert dom.sdf(x) == pytest.approx(0.2)
    p = dom.project(x)
    np.testing.assert_allclose(p, [1.0, -1.5], atol=1e-12)
    np.testing.assert_allclose(dom.normal(p), [0.0, 1.0], atol=1e-12)
    assert dom.sdf(np.array([1.0, -2.0])) == pytest.approx(-0.5)


BOX = DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0))
HALF = DomainSpec.half_disk_flat_bottom((0.0, 1.0), 1.0)


@pytest.mark.parametrize("dom,x,n", [
    (BOX, (2.0, 0.3), (1.0, 0.0)),
    (BOX, (0.0, 0.7), (-1.0, 0.0)),
    (BOX, (1.2, 1.0), (0.0, 1.0)),
    (BOX, (0.5, 0.0), (0.0, -1.0)),
    (HALF, (0.3, 1.0), (0.0, -1.0)),
    (HALF, (math.cos(1.0), 1.0 + math.sin(1.0)),
     (math.cos(1.0), math.sin(1.0))),
    (HALF, (math.cos(2.5), 1.0 + math.sin(2.5)),
     (math.cos(2.5), math.sin(2.5))),
])
def test_normal_matches_closed_form(dom, x, n):
    # rectangles and half disks take the signed-distance gradient
    np.testing.assert_allclose(dom.normal(np.array(x)), n, atol=1e-6)
    np.testing.assert_allclose(dom.normal(np.array([x, x])), [n, n],
                               atol=1e-6)


def test_rectangle_and_scaled_copy():
    dom = DomainSpec.rectangle((0.0, 0.0), (2.0, 1.0))
    inside = np.array([[1.0, 0.5], [0.1, 0.1], [1.9, 0.9]])
    assert dom.sdf(inside).max() < 0
    onK = dom.contains_scaled(inside, 2 / 3)
    assert onK[0] and not onK[1] and not onK[2]


def test_boundary_points_uniform_arclength():
    dom = DomainSpec.disk((0.0, 0.0), 2.0)
    pts, nrm, s, total = dom.boundary_points(36, offset=0.5)
    assert total == pytest.approx(4 * math.pi)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 2.0, atol=1e-12)
    gaps = np.diff(s)
    np.testing.assert_allclose(gaps, gaps[0])


def test_implicit_domain_annulus():
    ax = np.linspace(-1.2, 1.2, 241)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    R = np.hypot(X, Y)
    dom = DomainSpec.implicit(np.maximum(0.5 - R, R - 1.0),
                              lo=(-1.2, -1.2), hi=(1.2, 1.2))
    assert dom.sdf(np.array([0.75, 0.0])) < 0
    assert dom.sdf(np.array([0.0, 0.0])) > 0
    assert dom.sdf(np.array([1.1, 0.0])) > 0
    p = dom.project(np.array([1.04, 0.0]))
    assert abs(np.linalg.norm(p) - 1.0) < 5e-3


def test_iddc_audit_disk_vs_flats():
    disk = iddc_audit(DomainSpec.disk((0.0, 0.0), 1.0))
    assert disk["iddc_plausible"]
    half = iddc_audit(DomainSpec.half_disk_flat_bottom((0.0, 1.0), 1.0))
    assert not half["iddc_plausible"]
    flat_ms = [tuple(iv["m"]) for iv in half["intervals"]
               if iv["n_samples"] > 2]
    assert (0, 1) in flat_ms
    square = iddc_audit(DomainSpec.rectangle((0.0, 0.0), (1.0, 1.0)))
    assert not square["iddc_plausible"]
