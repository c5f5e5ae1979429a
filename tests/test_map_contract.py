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
from tamelab import pi_tame, sln_tame
from tamelab.cn_tame import Polynomial, ShearAut, push_prefix_cn
from tamelab.core import (
    CONSISTENT,
    HEIGHTS_CLEARED,
    VIOLATED,
    Automorphism,
    Composite,
    DiscreteSequence,
    HeightAssignment,
    IdentityAut,
    LinearAut,
    Moved,
    ScalarAut,
    as_point,
    cn,
    falls_short,
    sln,
)
from tamelab.disc_plane import DiscPlaneAut, MoebiusDisc, disc_plane_space
from tamelab.errors import DeterminantError
from tamelab.pi_tame import BundlePushAut, QPolyMap
from tamelab.sl2_special import (
    BivariatePoly,
    OvershearAut,
    OvershearSpec,
    overshear_apply,
    sl2_column_pipeline,
)


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


def test_maps_write_their_kind_and_parameters():
    assert ScalarAut(0.5 - 2j).to_json() == {"kind": "scalar", "factor": [0.5, -2.0]}
    phi = MoebiusDisc(0.25, 0.5 + 0.125j)
    assert phi.to_json() == {"theta": 0.25, "alpha": [0.5, 0.125]}
    assert DiscPlaneAut(phi, Polynomial((1j,)), Polynomial((0.5, 2.0))).to_json() == {
        "kind": "disc-plane",
        "phi": {"theta": 0.25, "alpha": [0.5, 0.125]},
        "logf": {"kind": "poly", "coeffs": [[0.0, 1.0]]},
        "g": {"kind": "poly", "coeffs": [[0.5, 0.0], [2.0, 0.0]]},
    }


def _trivial_push(n: int, r_fn=None) -> BundlePushAut:
    zeros = lambda count: tuple(Polynomial() for _ in range(count))  # noqa: E731
    r_fns = zeros(n - 1) if r_fn is None else (r_fn,) + zeros(n - 2)
    return BundlePushAut(QPolyMap(n, np.ones(n, dtype=np.complex128), r_fns, zeros((n - 1) ** 2)))


def test_push_rejects_a_factor_off_the_group(monkeypatch):
    rng = np.random.default_rng(99)
    pts = _sln(rng, 6, 3)
    phi = _push_with_lower_blocks(rng, pts)
    assert not phi.fmap.identity_lower()
    assert np.isfinite(phi.apply(pts[0])).all()
    doubled = lambda m: 2.0 * np.broadcast_to(np.eye(m.shape[-1]), m.shape)  # noqa: E731
    monkeypatch.setattr(pi_tame, "_matrix_exp", doubled)
    with pytest.raises(DeterminantError, match=r"determinant 4\+0j differs from 1 by 3"):
        phi.apply(pts[0])
    # zero lower fits give identity lower blocks, which are not evaluated
    assert np.array_equal(_trivial_push(3).apply(np.eye(3)), np.eye(3))


def test_push_rejects_a_non_finite_factor_at_the_first_such_row():
    for n in (2, 3):
        phi = _trivial_push(n, Polynomial((0.0, 0.0, 1e-10)))
        far = np.diag([1e160, 1e-160, *[1.0] * (n - 2)])
        ps = np.stack([np.eye(n), far]).astype(np.complex128)
        assert np.isfinite(phi.apply(ps[0])).all()
        with pytest.raises(ValueError, match="^point 1: matrix contains non-finite entries$"):
            phi.apply_batch(ps)


# The moves: each returns a `Moved` that unpacks as its old pair, (map,
# second value), and carries the stack it checked, which is the map's own
# image of the input, bit for bit.


def _heights(rng, m: int, n: int, height: float):
    d = DiscreteSequence(cn(n), tuple(_vectors(rng, m, n)))
    return d, HeightAssignment.constant(height, m)


def _equivalent_pair(rng, m: int):
    """Two SL(2) prefixes over one set of first columns: d = c q with q in
    the fiber group, so the push carries d onto c."""
    cs = _sl2(rng, m)
    qs = np.zeros((m, 2, 2), dtype=np.complex128)
    qs[:, 0, 0] = qs[:, 1, 1] = 1.0
    qs[:, 0, 1] = _complex(rng, m)
    return DiscreteSequence(sln(2), tuple(cs)), DiscreteSequence(sln(2), tuple(cs @ qs))


def _move(name: str):
    """(move result, the input it moved, the second value as the move has
    always computed it, whether the stack is the input itself) on a seeded
    input."""
    rng = np.random.default_rng(101 + MOVES.index(name))
    if name.startswith("shears"):
        d, zeta = _heights(rng, 20, 3, 30.0 if name == "shears" else 1e-3)
        m = push_prefix_cn(d, zeta, seed=4)
        proof = m[1]
        assert proof["stages"] == ("unitary+shear" if name == "shears" else "identity")
        assert not falls_short(proof["achieved"], proof["targets"]).any()
        assert (m.verdict, m.fields) == (HEIGHTS_CLEARED, {"proof": proof})
        return m, d.array, proof, name != "shears"
    if name.startswith("bundle-push"):
        n = 3 if name.endswith("sl3") else 2
        pts = _sl2(rng, 15) if n == 2 else _sln(rng, 15, 3)
        d = DiscreteSequence(sln(n), tuple(pts))
        m = pi_tame.bundle_push(d, HeightAssignment.constant(
            1e-3 if name.endswith("unmoved") else 40.0, len(d)), seed=2)
        achieved = tuple(float(h) for h in np.max(np.linalg.norm(m.stack, axis=1), axis=1))
        assert (m.verdict, m.fields) == (HEIGHTS_CLEARED, {"achieved": list(achieved)})
        return m, d.array, achieved, False
    if name.startswith("center-separate"):
        stuck = np.array([[1.0, 1e-30], [0.0, 1.0]])
        mats = {"center-separate": [np.eye(2), -np.eye(2), _sl2(rng, 1)[0]],
                "center-separate-no-pairs": list(_sl2(rng, 4)),
                "center-separate-stuck": [np.eye(2), stuck]}[name]
        d = DiscreteSequence(sln(2), tuple(np.asarray(x, dtype=np.complex128) for x in mats))
        m = sln_tame.center_separate(d, tries=3, seed=5)
        want = {"center-separate": (CONSISTENT, "central pairs separated after 1 attempt(s)"),
                "center-separate-no-pairs":
                    (CONSISTENT, "no prefix pair differs by a unimodular scalar"),
                "center-separate-stuck": (VIOLATED, "pair still central after 3 shear attempts")}
        assert (m[1].state, m[1].detail) == want[name]
        assert m.verdict is m[1] and m.fields == {}
        return m, d.array, m.verdict, name != "center-separate"
    if name.startswith("pipeline"):
        mats = [] if name == "pipeline-empty" else [np.diag([k, 1.0 / k]) for k in range(1, 11)]
        d = DiscreteSequence(sln(2), tuple(np.asarray(x, dtype=np.complex128) for x in mats))
        m = sl2_column_pipeline(d, seed=3)
        assert m[1].state == CONSISTENT
        assert m[1].detail.endswith("; translation seed 3" if mats else "nothing to move")
        assert m.verdict is m[1] and m.fields == {}
        return m, d.array, m.verdict, not mats
    if name == "equivalence":
        c_seq, d_seq = _equivalent_pair(rng, 12)
        m = sln_tame.equivalence_move(c_seq, d_seq, seed=1)
        worst = float(np.max(np.abs(m[1] - c_seq.array)))
        assert m.verdict.state == CONSISTENT and m.fields == {}
        assert m.verdict.detail == f"worst mapping error {worst:.3g}"
        return m, d_seq.array, m.stack, False
    raise AssertionError(name)


MOVES = (
    "shears", "shears-unmoved", "bundle-push", "bundle-push-unmoved", "bundle-push-sl3",
    "center-separate", "center-separate-no-pairs", "center-separate-stuck", "pipeline",
    "pipeline-empty", "equivalence",
)


@pytest.mark.parametrize("name", MOVES)
def test_a_move_returns_its_pair_and_the_stack_it_checked(name):
    m, points, second, identity = _move(name)
    assert isinstance(m, Moved) and len(m) == 2
    aut, value = m
    assert aut is m.aut and m[0] is m.aut and value is m[1]
    assert value == second if isinstance(second, tuple) else value is second
    want = m.aut.apply_batch(points)
    assert m.stack.shape == want.shape
    assert np.array_equal(m.stack.view(np.uint64), want.view(np.uint64))
    # an identity result (`IdentityAut`, the empty composite) hands back its input
    assert (m.stack is points) == identity
