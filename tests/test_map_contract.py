"""The map contract: `apply_batch` moves a stack of points, `apply` is its
one-row view, and every shipped map moves each row exactly as its
per-point formula does.

The references below are the per-point `apply` bodies the maps had
before they moved whole stacks, with the polynomial evaluation they used,
so a batched map is held to the old bytes and not only to itself.
"""

from __future__ import annotations

import numpy as np
import pytest

import tamelab.cli  # noqa: F401  (imports every module that defines a map)
from tamelab import pi_tame
from tamelab.cn_tame import Polynomial, ShearAut
from tamelab.core import (
    Automorphism,
    Composite,
    DiscreteSequence,
    HeightAssignment,
    IdentityAut,
    LinearAut,
    ScalarAut,
    as_point,
    sln,
)
from tamelab.disc_plane import DiscPlaneAut, MoebiusDisc, disc_plane_space
from tamelab.errors import DeterminantError
from tamelab.pi_tame import BundlePushAut, QPolyMap
from tamelab.sl2_special import BivariatePoly, OvershearAut, OvershearSpec, overshear_apply


def _old_scalar_poly(f: Polynomial, z) -> complex:
    """`Polynomial.__call__` at a scalar, as it was."""
    acc = np.zeros_like(np.asarray(z, dtype=np.complex128))
    for c in reversed(f.coeffs):
        acc = acc * z + c
    return complex(acc)


def _old_eval_each(fn, ss: np.ndarray) -> np.ndarray:
    """The push's scalar Horner rule over an array, as it was."""
    if not isinstance(fn, Polynomial):
        return fn(ss)
    out = []
    for s in ss.tolist():
        acc = 0j
        for c in fn.coeffs[::-1]:
            acc = acc * s + c
        out.append(acc)
    return np.array(out, dtype=np.complex128)


def _old_push(aut: BundlePushAut, p: np.ndarray) -> np.ndarray:
    fmap = aut.fmap
    m = np.asarray(p, dtype=np.complex128)
    ss = np.sum(fmap.u * m[:, 0][None], axis=1)
    k = fmap.n - 1
    r = np.stack([_old_eval_each(fn, ss) for fn in fmap.r_fns], axis=1)
    logl = np.stack([_old_eval_each(fn, ss) for fn in fmap.logl_fns], axis=1)
    logl = logl.reshape(1, k, k)
    logl -= np.eye(k) * (np.trace(logl, axis1=1, axis2=2) / k)[:, None, None]
    return m @ pi_tame._q_stack(r, pi_tame._matrix_exp(logl))[0]


def _reference(aut: Automorphism, p: np.ndarray) -> np.ndarray:
    if isinstance(aut, IdentityAut):
        return np.array(p, dtype=np.complex128)
    if isinstance(aut, LinearAut):
        return aut.matrix @ p
    if isinstance(aut, ScalarAut):
        return aut.factor * p
    if isinstance(aut, Composite):
        for stage in aut.stages:
            p = _reference(stage, p)
        return p
    if isinstance(aut, ShearAut):
        out = np.array(p, dtype=np.complex128)
        out[aut.axis] = out[aut.axis] + _old_scalar_poly(aut.f, out[aut.driver])
        return out
    if isinstance(aut, BundlePushAut):
        return _old_push(aut, p)
    if isinstance(aut, OvershearAut):
        return overshear_apply(aut.spec, p)
    if isinstance(aut, DiscPlaneAut):
        q = as_point(disc_plane_space(), p)
        z, w = complex(q[0]), complex(q[1])
        return np.array(
            [aut.phi.apply(z),
             np.exp(_old_scalar_poly(aut.logf, z)) * w + _old_scalar_poly(aut.g, z)],
            dtype=np.complex128,
        )
    raise AssertionError(f"no reference for {type(aut).__name__}")


def _vectors(rng, m: int, n: int) -> np.ndarray:
    return 3.0 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sl2(rng, m: int) -> np.ndarray:
    a, b, c = _complex(rng, 3, m)
    a = a + 0.2 * a / np.abs(a)
    return np.stack([np.stack([a, c], axis=1), np.stack([b, (1.0 + b * c) / a], axis=1)], axis=1)


def _sln(rng, m: int, n: int) -> np.ndarray:
    a = _complex(rng, m, n, n)
    a[:, :, 0] /= np.linalg.det(a)[:, None]
    return a


def _overshear(rng) -> OvershearAut:
    grid = 0.05 * _complex(rng, 2, 2)
    return OvershearAut(OvershearSpec(BivariatePoly(tuple(tuple(row) for row in grid))))


def _push(pts: np.ndarray, height: float) -> BundlePushAut:
    d = DiscreteSequence(sln(pts.shape[1]), tuple(pts))
    phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(height, len(d)), seed=3)
    return phi


def _push_with_lower_blocks(rng, pts: np.ndarray) -> BundlePushAut:
    """A push on SL(3) whose lower blocks are not the identity."""
    x = np.array([[0.3, 0.1], [0.2, -0.3]])
    factors = np.concatenate([
        pi_tame._q_stack(_complex(rng, 2)[None], pi_tame._matrix_exp(s * x)[None])
        for s in np.linspace(-0.5, 0.5, 6)
    ])
    return BundlePushAut(pi_tame.fit_factors(pts[:6, :, 0], factors, seed=2))


def _case(name: str):
    """(map, stack of points) for one shipped map, from a seeded stream."""
    rng = np.random.default_rng(1 + CASES.index(name))
    if name == "identity-vectors":
        return IdentityAut(), _vectors(rng, 25, 3)
    if name == "identity-matrices":
        return IdentityAut(), _sl2(rng, 25)
    if name.startswith("linear-n"):
        n = int(name[-1])
        return LinearAut(_complex(rng, n, n)), _vectors(rng, 40, n)
    if name == "linear-matrices":
        return LinearAut(_complex(rng, 2, 2)), _sl2(rng, 40)
    if name == "scalar":
        return ScalarAut(complex(*rng.standard_normal(2))), _vectors(rng, 40, 3)
    if name == "shear":
        return ShearAut(1, 0, Polynomial(tuple(_complex(rng, 7)))), _vectors(rng, 40, 3)
    if name == "shear-backwards":
        return ShearAut(0, 2, Polynomial(tuple(_complex(rng, 4)))), _vectors(rng, 40, 3)
    if name == "composite":
        stages = (LinearAut(_complex(rng, 3, 3)), ShearAut(2, 0, Polynomial(tuple(_complex(rng, 3)))),
                  ScalarAut(0.5 - 1.5j))
        return Composite(stages), _vectors(rng, 40, 3)
    if name == "composite-pipeline":
        pts = _sl2(rng, 12)
        left = LinearAut(_sl2(rng, 1)[0])
        over = _overshear(rng)
        push = _push(np.stack([over.apply(p) for p in left.matrix @ pts]), 30.0)
        return Composite((left, over, push)), pts
    if name == "overshear":
        return _overshear(rng), _sl2(rng, 40)
    if name == "push-small":
        pts = _sl2(rng, 12)
        return _push(pts, 25.0), pts
    if name == "push-barycentric":
        pts = _sl2(rng, 45)
        return _push(pts, 60.0), pts
    if name == "push-lower-blocks":
        pts = _sln(rng, 10, 3)
        return _push_with_lower_blocks(rng, pts), pts
    if name == "disc-plane":
        aut = DiscPlaneAut(MoebiusDisc(0.7, 0.3 - 0.2j), Polynomial(tuple(0.3 * _complex(rng, 4))),
                           Polynomial(tuple(_complex(rng, 5))))
        z = 0.9 * np.sqrt(rng.uniform(size=30)) * np.exp(2j * np.pi * rng.uniform(size=30))
        return aut, np.stack([z, _complex(rng, 30)], axis=1)
    raise AssertionError(name)


CASES = (
    "identity-vectors", "identity-matrices", "linear-n2", "linear-n3", "linear-n4",
    "linear-matrices", "scalar", "shear", "shear-backwards", "composite",
    "composite-pipeline", "overshear", "push-small", "push-barycentric",
    "push-lower-blocks", "disc-plane",
)


def _shipped_maps() -> set[type]:
    found, pending = set(), [Automorphism]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not Automorphism and cls.__module__.startswith("tamelab."):
            found.add(cls)
    return found


def test_cases_cover_every_shipped_map():
    assert {type(_case(name)[0]) for name in CASES} == _shipped_maps()


@pytest.mark.parametrize("cls", sorted(_shipped_maps(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_each_map_defines_one_form(cls):
    # the batch form; `apply` is the base class's one-row view of it
    assert "apply_batch" in cls.__dict__ and "apply" not in cls.__dict__


@pytest.mark.parametrize("name", CASES)
def test_batch_rows_match_the_per_point_formula(name):
    aut, ps = _case(name)
    batch = aut.apply_batch(ps)
    assert batch.shape == ps.shape and batch.dtype == np.complex128
    for k, p in enumerate(ps):
        want = _reference(aut, p)
        assert np.array_equal(batch[k], want), f"row {k}"
        assert np.array_equal(aut.apply(p), want), f"row {k}"
        assert np.array_equal(aut(p), want), f"row {k}"


@pytest.mark.parametrize("name", CASES)
def test_empty_stack_maps_to_empty_stack(name):
    aut, ps = _case(name)
    out = aut.apply_batch(ps[:0])
    assert out.shape == ps[:0].shape


def _trivial_push(n: int, r_fn=None) -> BundlePushAut:
    zeros = lambda count: tuple(Polynomial() for _ in range(count))  # noqa: E731
    r_fns = zeros(n - 1) if r_fn is None else (r_fn,) + zeros(n - 2)
    return BundlePushAut(QPolyMap(n, np.ones(n, dtype=np.complex128), r_fns, zeros((n - 1) ** 2)))


def test_push_rejects_a_factor_off_the_group(monkeypatch):
    phi = _trivial_push(3)
    assert np.array_equal(phi.apply(np.eye(3)), np.eye(3))
    doubled = lambda m: 2.0 * np.broadcast_to(np.eye(m.shape[-1]), m.shape)  # noqa: E731
    monkeypatch.setattr(pi_tame, "_matrix_exp", doubled)
    with pytest.raises(DeterminantError, match=r"determinant 4\+0j differs from 1 by 3"):
        phi.apply(np.eye(3))


def test_push_rejects_a_non_finite_factor_at_the_first_such_row():
    phi = _trivial_push(2, Polynomial((0.0, 0.0, 1e-10)))
    ps = np.stack([np.eye(2), np.diag([1e160, 1e-160])]).astype(np.complex128)
    assert np.isfinite(phi.apply(ps[0])).all()
    with pytest.raises(ValueError, match="non-finite"):
        phi.apply_batch(ps)
