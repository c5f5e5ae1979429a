"""Golden corpus: sha256 digests of command-line outputs.

Every command runs in-process from a scratch working directory with
relative paths, so the input and output paths recorded inside the
reports are the same on every machine.  A digest that stops matching
means the bytes a user gets from the same command and seed have changed;
such a change must be deliberate and named in CHANGES.md, and the digest
is never re-frozen to absorb an accident.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from tamelab import cli, core
from tamelab.core import DiscreteSequence, load_sequence, sln


def _random_sl2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = z[0] + 0.2 * z[0] / abs(z[0])
    return np.array([[a, z[2]], [z[1], (1.0 + z[2] * z[1]) / a]])


def _random_sl3(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return z / np.linalg.det(z) ** (1.0 / 3.0)


def _pair_doc(points, n: int = 2) -> dict:
    """A sequence document written with the standard json module, so the
    seeded inputs do not depend on the serializer under test."""
    return {
        "ambient": "sln",
        "n": n,
        "points": [
            [[[z.real, z.imag] for z in row] for row in p] for p in points
        ],
    }


def _sl3_fiber_factor(k: int) -> np.ndarray:
    """[[1, r], [0, L]] with r = (k, 0.5j * k) and L = P diag(mu, 1/mu) P^-1
    for mu = 1 + k / 8: it fixes e1 and has determinant one."""
    p = np.array([[1.0, 1.0j], [0.5, 2.0]])
    mu = 1.0 + k / 8.0
    q = np.eye(3, dtype=np.complex128)
    q[0, 1:] = (k, 0.5j * k)
    q[1:, 1:] = p @ np.diag([mu, 1.0 / mu]) @ np.linalg.inv(p)
    return q


def _sl2_equivalence_pair(count: int) -> tuple[list, list]:
    """Diagonal c_k and d_k = c_k q_k with q_k = [[1, t], [0, 1]], written
    entry by entry in Python complex arithmetic (no matmul, no LAPACK), so
    the inputs do not depend on the BLAS kernel. Some zeros are -0.0."""
    cs, ds = [], []
    for k in range(1, count + 1):
        a = complex(1.0 + k / 64.0, (k % 7) / 16.0)
        t = complex(k % 11 - 5.0, (k % 5) / 4.0)
        zero = complex(-0.0, -0.0) if k % 3 == 0 else 0j
        cs.append([[a, zero], [zero, 1.0 / a]])
        ds.append([[a, a * t], [zero, 1.0 / a]])
    return cs, ds


def _sl3_equivalence_pair(count: int) -> tuple[list, list]:
    """Diagonal c_k and d_k = c_k q_k with q_k = [[1, r], [0, L]] and
    L = [[mu, s], [0, 1/mu]], mu != +-1, written entry by entry as in
    `_sl2_equivalence_pair`."""
    cs, ds = [], []
    for k in range(1, count + 1):
        a = complex(1.0 + k / 32.0, (k % 5) / 8.0)
        b = complex(0.5 + (k % 9) / 8.0, -(k % 4) / 8.0)
        c = 1.0 / (a * b)
        r = (complex(k % 7 - 3.0, 0.5), complex(0.25, (k % 3) - 1.0))
        mu = complex(1.5 + k / 100.0, (k % 6) / 8.0)
        s = complex((k % 4) / 2.0, -0.75)
        zero = complex(-0.0, 0.0) if k % 2 else 0j
        cs.append([[a, zero, zero], [zero, b, zero], [zero, zero, c]])
        ds.append([[a, a * r[0], a * r[1]], [zero, b * mu, b * s], [zero, zero, c / mu]])
    return cs, ds


def _write_inputs() -> None:
    cs = [np.diag([float(k), 1.0 / k]).astype(complex) for k in range(1, 16)]
    ds = [c @ np.array([[1.0, float(k)], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
    for path, pts in (("ceq.json", cs), ("deq.json", ds)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.canonical_json(DiscreteSequence(sln(2), tuple(pts)).to_json()))
    # an SL(3) pair whose fiber factors have a nonzero top row and a
    # diagonalizable lower block other than the identity, so every one of
    # the six fitted block columns is nonzero
    cs = [np.diag([float(k), 1.0, 1.0 / k]).astype(complex) for k in range(1, 11)]
    ds = [c @ _sl3_fiber_factor(k) for k, c in enumerate(cs, 1)]
    for path, pts in (("ceq3.json", cs), ("deq3.json", ds)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.canonical_json(DiscreteSequence(sln(3), tuple(pts)).to_json()))
    for path, pts in zip(("ceq300.json", "deq300.json"), _sl2_equivalence_pair(300)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_pair_doc(pts)))
    for path, pts in zip(("ceq3-100.json", "deq3-100.json"), _sl3_equivalence_pair(100)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_pair_doc(pts, n=3)))
    rng = np.random.default_rng(20170)
    for path, count in (("rand40.json", 40), ("rand12.json", 12)):
        doc = _pair_doc([_random_sl2(rng) for _ in range(count)])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    # a larger push: 120 points
    rng = np.random.default_rng(20172)
    doc = _pair_doc([_random_sl2(rng) for _ in range(120)])
    with open("rand120.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    # an SL(3) prefix, so a push takes the general n >= 3 factor path
    rng = np.random.default_rng(20173)
    doc = _pair_doc([_random_sl3(rng) for _ in range(30)], n=3)
    with open("rand30-sl3.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    rng = np.random.default_rng(20171)
    flat = rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3))
    doc = {"ambient": "cn", "n": 3, "points": [[[z.real, z.imag] for z in p] for p in flat]}
    with open("flat60.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    with open("bounds.json", "w", encoding="utf-8") as fh:
        fh.write(_bounds_text())
    with open("flat3000.json", "w", encoding="utf-8") as fh:
        fh.write(_flat_rows_text())


def _bounds_text() -> str:
    """A hand-written document at the edges of number printing: ints at
    and just past 2**53, a "-0" token, the smallest subnormal and the
    largest float, mixed int/float rows, and a block of 1025 rows, one
    more than the emitter formats together."""
    big = 2**53
    rows = [f"[{i}, {i / 7!r}, {-3 * i}]" for i in range(1025)]
    rows[1000] = "[-0, -0.0, 1000]"
    rows[1024] = f"[{big + 1}, 0.5, {-(big + 1)}]"
    return (
        '{"command": "gen", "family": "bounds",\n'
        f' "ints": [{big}, {-big}, {big + 1}, {-(big + 1)}, -0, 0],\n'
        ' "floats": [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],\n'
        f' "mixed": [[1, 2.5], [3.25, -4], [{big}, 0.1], [-0, 1e-300]],\n'
        ' "block": [' + ", ".join(rows) + "]}\n"
    )


def _flat_rows_text() -> str:
    """A hand-written C^2 document of 3000 points, about three blocks of
    rows as the emitter formats them. Per point [[a, b], [c, d]]: a
    varies; b is 0.5 through the first block of 1024 rows and varies
    after it; c is written as "0" and "-0" tokens, mixed in the first
    two blocks and "-0" alone in the last; d is an int in every row,
    2**53 in one of them."""
    rows = []
    for i in range(3000):
        b = "0.5" if i < 1024 else repr(i / 3)
        c = "-0" if i >= 2048 or i % 3 == 0 else "0"
        d = 2**53 if i == 2500 else 7 * i - 9000
        rows.append(f"[[{(i + 1) / 7!r}, {b}], [{c}, {d}]]")
    return '{"ambient": "cn", "n": 2, "points": [' + ", ".join(rows) + "]}\n"


# (name, argv); each command writes <name>.out, later commands read it.
_COMMANDS = (
    ("wp", ["gen", "wellplaced2", "--k", "16"]),
    ("wp1", ["gen", "wellplaced2", "--k", "16", "--p", "1"]),
    ("dt", ["gen", "diagtorus", "--k", "6"]),
    ("sg", ["gen", "sl2-gauss", "--field", "qi", "--height", "1"]),
    ("sg-qi2", ["gen", "sl2-gauss", "--field", "qi", "--height", "2"]),
    ("sg-q3-2", ["gen", "sl2-gauss", "--field", "q3", "--height", "2"]),
    ("sg-q10", ["gen", "sl2-gauss", "--field", "q", "--height", "10"]),
    ("cnp", ["gen", "cn-powers", "--n", "2", "--alpha", "1", "--k", "2000"]),
    ("dpb", ["gen", "discplane-base", "--mode", "boundary", "--k", "30"]),
    ("pa", ["gen", "punctured-accumulate", "--k", "40"]),
    # the sixteen shapes of the command-line determinism acceptance test
    ("overshear-det", ["transform", "overshear", "sg.out", "--lambda", "1+0.5*a"]),
    ("overshear-law", ["transform", "overshear", "sg.out", "--lambda", "1-0.25*a"]),
    ("overshear-grid", ["transform", "overshear", "sg.out", "--shift", "0.05,0;0,0.02"]),
    ("series", ["check", "rr-series", "cnp.out"]),
    ("torus", ["transform", "torus-embed", "dt.out"]),
    ("union", ["transform", "union-decompose", "wp.out"]),
    ("rescale", ["transform", "lambda-rescale", "wp.out", "--factor", "2"]),
    ("align", ["transform", "align", "wp.out", "--seq2", "wp1.out"]),
    ("equivalence", ["transform", "equivalence", "ceq.json", "--seq2", "deq.json",
                     "--seed", "0"]),
    ("sl3-equivalence", ["transform", "equivalence", "ceq3.json", "--seq2", "deq3.json",
                         "--seed", "0"]),
    # longer pairs through the same move
    ("equivalence-300", ["transform", "equivalence", "ceq300.json", "--seq2",
                         "deq300.json", "--seed", "0"]),
    ("sl3-equivalence-100", ["transform", "equivalence", "ceq3-100.json", "--seq2",
                             "deq3-100.json", "--seed", "0"]),
    ("classify", ["check", "dp-classify", "dpb.out"]),
    ("punctured", ["check", "punctured", "pa.out"]),
    ("omega", ["mc", "omega", "--seq", "dt.out", "--samples", "300", "--seed", "5"]),
    ("measure", ["mc", "measure", "--R", "10,100,1000", "--r", "1",
                 "--samples", "2000", "--seed", "3"]),
    ("threshold", ["mc", "threshold", "--levels", "3", "--samples", "2000",
                   "--seed", "0"]),
    # estimator windows that span more than one draw block
    ("mc-g", ["mc", "g", "--r", "4", "--probes", "4", "--samples", "9000", "--seed", "2"]),
    ("measure-blocks", ["mc", "measure", "--R", "10,100", "--r", "4",
                        "--samples", "10001", "--seed", "3"]),
    ("threshold-blocks", ["mc", "threshold", "--levels", "2", "--samples", "8193",
                          "--probes", "3", "--seed", "0"]),
    # tail estimates strictly inside (0, 1), so single norms decide them
    ("mc-g-tail", ["mc", "g", "--r", "0.25", "--probes", "8", "--samples", "4000",
                   "--seed", "2"]),
    ("measure-tail", ["mc", "measure", "--R", "1.5,3,10", "--r", "2.5",
                      "--samples", "20000", "--seed", "4"]),
    ("threshold-tail", ["mc", "threshold", "--levels", "5", "--samples", "10000",
                        "--seed", "7"]),
    # every twist fails, and the failures cross a block of twists
    ("omega-blocks", ["mc", "omega", "--seq", "sg.out", "--samples", "300",
                      "--max-fiber", "1", "--seed", "5"]),
    ("pipeline", ["transform", "sl2-pipeline", "sg.out", "--seed", "3",
                  "--max-fiber", "16"]),
    ("report", ["report", "wp.out"]),
    ("bounds-report", ["report", "bounds.json"]),
    ("flat-rows-report", ["report", "flat3000.json"]),
    # a long flat prefix through gen, report and the series check
    ("powers", ["gen", "cn-powers", "--n", "2", "--k", "20000", "--alpha", "1.15"]),
    ("powers-report", ["report", "powers.out"]),
    ("powers-series", ["check", "rr-series", "powers.out"]),
    # seeded SL(2) inputs through the matrix-group moves
    ("gauss-pi", ["check", "pi-tame", "sg.out", "--max-fiber", "64"]),
    ("rand-pi", ["check", "pi-tame", "rand40.json"]),
    ("rand-overshears", ["transform", "overshears", "rand40.json", "--lambda", "1+0.1*a"]),
    ("rand-overshears-report", ["report", "rand-overshears.out"]),
    ("rand-union", ["transform", "union-decompose", "rand40.json"]),
    ("rand-push", ["transform", "bundle-push", "rand40.json", "--height", "25",
                   "--seed", "7"]),
    ("rand12-push", ["transform", "bundle-push", "rand12.json", "--height", "1e6",
                     "--seed", "0"]),
    ("rand120-push", ["transform", "bundle-push", "rand120.json", "--height", "25",
                      "--seed", "7"]),
    ("sl3-push", ["transform", "bundle-push", "rand30-sl3.json", "--height", "25",
                  "--seed", "7"]),
    # a flat move and a matrix move, each checked once by core.check_moved
    ("flat-shears", ["transform", "shears", "flat60.json", "--height", "6", "--seed", "1"]),
    ("center", ["transform", "center-separate", "sg.out", "--seed", "1"]),
    # a chain: moves read back a move's output, which holds -0 tokens
    ("chain-union", ["transform", "union-decompose", "overshear-det.out"]),
    ("chain-center", ["transform", "center-separate", "overshear-det.out", "--seed", "1"]),
    # the diagonal torus: the subgroup check, and a longer prefix through
    # the embedding and the check
    ("one-param", ["check", "one-param", "dt.out"]),
    ("dt1k", ["gen", "diagtorus", "--k", "1000", "--ratio", "1.2"]),
    ("dt1k-torus", ["transform", "torus-embed", "dt1k.out"]),
    ("dt1k-one-param", ["check", "one-param", "dt1k.out"]),
    # reports of outputs with several points blocks, with (m, 3, 3, 2)
    # blocks, and of two hand edits of a long flat prefix
    ("rand-union-report", ["report", "rand-union.out"]),
    ("sl3-push-report", ["report", "sl3-push.out"]),
    ("pipeline-report", ["report", "pipeline.out"]),
    ("powers-one-report", ["report", "powers-one.json"]),
    ("powers-neg0-report", ["report", "powers-neg0.json"]),
)


def _edit_powers() -> None:
    """Two hand edits of powers.out: its first coordinate, the int 1,
    written as "1.0", which the emitter writes as "1"; and a "neg": -0
    key added to its config."""
    with open("powers.out", encoding="utf-8") as fh:
        text = fh.read()
    leaf = "\n          1,\n"
    out = '"out": "powers.out"\n  },'
    if leaf not in text or out not in text:
        raise RuntimeError("powers.out no longer has the layout these edits expect")
    with open("powers-one.json", "w", encoding="utf-8") as fh:
        fh.write(text.replace(leaf, "\n          1.0,\n", 1))
    with open("powers-neg0.json", "w", encoding="utf-8") as fh:
        fh.write(text.replace(out, '"out": "powers.out",\n    "neg": -0\n  },', 1))


# command name -> what runs after it, writing inputs for later commands
_AFTER = {"powers": _edit_powers}

# inputs written by `_write_inputs` whose bytes are digested too
_INPUTS = (
    "ceq.json", "deq.json", "ceq3.json", "deq3.json",
    "ceq300.json", "deq300.json", "ceq3-100.json", "deq3-100.json",
)

# name -> (exit code, sha256 of the --out file)
GOLDEN = {
    'wp': (0, 'c14bf851429c3a9e09a8b9a4a3367b8d6f40aac1b7189663effe98c55167b2c4'),
    'wp1': (0, 'c14b3d335c6f7ff60abe5635978f9886d45ba38b76c0b7a5f32fa100f5d00cea'),
    'dt': (0, '0bfd0d54c66ec9dc798e4f6d8bdbf931b119c0f0979065fc04d14d5eb1a25259'),
    'sg': (0, 'bdac9782485a4567ff9f089fb39fb6391e106a16c913f0c9f17d57adccdecb2b'),
    'sg-qi2': (0, 'edf083fbf7970107c7e4da3fde669dd726747d0394a6e9734c61c72a6854960c'),
    'sg-q3-2': (0, 'e251d01d6f3f69ae500eb230ebdfcf64ff95f0144dd3e51dbd12edb25341b93e'),
    'sg-q10': (0, 'c2fbc8314586e4e04610a719fb2c65b20a94c88e4d1e6d9b82fad43350d29be5'),
    'cnp': (0, '94931de76ec505b197810a8dfd385120678396f9d73eb51b30cfe7bd776e23cf'),
    'dpb': (0, 'fba584ec11da63b2718f4b1e743bab1819bc9c232c5be670773c18b993881f8b'),
    'pa': (0, 'e75170b27a50b2bc06fdcfbf0bbe5bdaf401e3fa09ce0e6287d4608d58c39ff1'),
    'overshear-det': (0, 'fd1b8ac5ebb50a4609642c991ff3bbef9756efe661cb5ad392dd800a1067cfe9'),
    'overshear-law': (0, 'd842da2fd974dc98843e7ffb0c96ffc5877be10149cc9a8e40757062d9473166'),
    'overshear-grid': (0, '1652ba0259e1df8355db42280d2a1bc65bfaeb65836a65fa390dd445afd1bdde'),
    'series': (0, '21cb1cc7102746bcaff7625971d8c84e4497aab15c44ebd7ffd98efd03995909'),
    'torus': (0, 'd92b11e480110a55cfee4e585b9f848fc2b4beaf29b0712c819ed80384ed86d9'),
    'union': (0, 'abbbceba3fdf62f18113a508172d821a4606e7308aee7bd7c9b7feda57ded04d'),
    'rescale': (0, '82a2aa975a347eaa5f0c68441e87b5bdd2787337d20ec074c9bba08e1c34f0c3'),
    'align': (0, '5ea47b79d3636d7c130ef8fd3e47d3b6c4eee00102c0483c02e510f15ebc35b2'),
    'equivalence': (0, '99579143c716bac5d8109fd120fe178907105ee964e408e38cae0b709b8f686c'),
    'sl3-equivalence': (0, '429bf21c43387891af4113786744949e760cd30b97710180a524635690f003f4'),
    'equivalence-300': (0, '7be8c5a17d01502934d73af35c1bae4972387c583e2336e5631b4c1daaf82a8c'),
    'sl3-equivalence-100': (0, '9333aa1a77e6c431a4bbbac6e97535a9ac58ae2e340a59f5b22ec33478648aef'),
    'classify': (0, 'bed7db0f21aebcb4a7eb8b4e0f295fdc15901a396ccb256b24064be291931783'),
    'punctured': (2, 'e7bfa1bfa042f0d0fb6194ada82501f179f3597ce765ce01d8137c5ee8da70c9'),
    'omega': (0, '1cfbb49606a1f63e312f43fc4fc5f98f908502f1ef2996d7a112aeaaaac29a29'),
    'measure': (0, 'cc46083b29ea84e73128834150f0e89843a721a1ba3f6126a29f5388d6b05ba0'),
    'threshold': (0, '0f2084f33b5a6ba82fd04290c6344afc266d51aada0fc88aaee9ef9979a20ee4'),
    'mc-g': (0, 'bc6293bfbfab97de6bd5cab9d2e6771d8aa50828b16e8543f35326c9da15c921'),
    'measure-blocks': (0, 'd25dfb0c5027c43ab503ca2f7871a1b2ab2b0c7b906e718702b113b19eb87fd9'),
    'threshold-blocks': (0, '87631a15d0fcf01bf64024495f8f362691261475c45693e2b3c746da989d40f3'),
    'mc-g-tail': (0, 'b7ef743ac512c17fcc6f255813e8fe5c5362b6d33e0aee6aab2cac3bba47af0a'),
    'measure-tail': (0, '6371d4d1d5808d90c55b76a5187899d332b4f6a74484d2d1b1c465d7ae337eeb'),
    'threshold-tail': (0, '0044d77c5d81bbb25b186e74f861a14259e66fc3d808b7d9b3573929307b2ee9'),
    'omega-blocks': (0, 'cae9714d43c0c33a905bcd2a33c50e2ec259adb44f6bb2b3b10bfae7255553f5'),
    'pipeline': (0, '67e1861f4a17a73ce25c8ffeeffab63922321e9b654217de1081d99e9aa0ee32'),
    'bounds-report': (0, '4dbbe9f5ab890602dcb043d7aea17fae76ce0ca119dc960a03e6472dcaf09215'),
    'flat-rows-report': (0, '93255a78b7fd441c41ef6347d1a177c6a2d2789304824e1b5cfec6f68f0e6422'),
    'report': (0, 'c14bf851429c3a9e09a8b9a4a3367b8d6f40aac1b7189663effe98c55167b2c4'),
    'powers': (0, 'f5cda6d589cbd40e097416bc82feb35a2d1986c6531f03f3a1705536972542bc'),
    'powers-report': (0, 'f5cda6d589cbd40e097416bc82feb35a2d1986c6531f03f3a1705536972542bc'),
    'powers-series': (0, '461500f5ab8ef63e08982c4788febd63ccae9f23cdebb73e9de27f768e524e4a'),
    'gauss-pi': (0, 'c1e2551ebd4f0db380f7f5045c0a46b997762d11d0ab6733002695c69b155d46'),
    'rand-pi': (0, 'aa42adc4d7502ad8e101ccfa4171ee12fbb9b8af2eeb2e1722ca009a51e924d5'),
    'rand-overshears': (0, '534fc6dbeb3aab75725fd1e33bbba38cb9fef5ff1b291ab31d117284e4b44536'),
    'rand-overshears-report': (0, '534fc6dbeb3aab75725fd1e33bbba38cb9fef5ff1b291ab31d117284e4b44536'),
    'rand-union': (0, '8ba3a79a04a32b2e2ecab7d0b99011e5b0a656eec577b3e1fc7e6a874bd1f7fd'),
    'rand-push': (0, 'd7148e71f7ec42d99e6e2298b6179d24c3363e817609e26988c527e7a5ac1b0d'),
    'rand12-push': (0, '7ac881f4837ef24524dc9f767c3b4003a850bc03fdec4e60fa863bda022ba916'),
    'rand120-push': (0, '226b86d35d488b7f08f4e1216477c00c0658cecd58c6d5e43532c2c1d4ba2cea'),
    'sl3-push': (0, 'f5350b13a6e92b0ada7f63d247729f071bea029b006033de5f4894af0cc4691c'),
    'flat-shears': (0, '4c8ffa76d205276e18c5f485c8fa6422728fa7e91e1a907432ece17601fbcd65'),
    'center': (0, '3fdd5908b2ed65f0701203221f727a97daee0b79834598845130416ca67ebc35'),
    'chain-union': (0, 'abaf888509ae8ba0da65a08b34368c626ee762ddbac83c1eced46dc041da92e3'),
    'chain-center': (0, '08225e40a03acd504384be0673e21443f630ce1eb517e7559b726e96c04f86da'),
    'one-param': (0, '11c28b7fcc8803cd6ca91726bdc698e5ca41e3a5109fa72e11ac20dcd6613788'),
    'dt1k': (0, '7ec54217a72f9c3afde2397da2184e638ed327b473807faa3f18864e6643e4b7'),
    'dt1k-torus': (0, 'a904cb972a48ede5ba325a76828b4c09ae6d907a7d516355ba430c94efbd7b3c'),
    'dt1k-one-param': (0, '52684416d86aeddf7fbc34557f4f4c14bf3066eac20b190aaced3d73e2ba6ed1'),
    'rand-union-report': (0, '8ba3a79a04a32b2e2ecab7d0b99011e5b0a656eec577b3e1fc7e6a874bd1f7fd'),
    'sl3-push-report': (0, 'f5350b13a6e92b0ada7f63d247729f071bea029b006033de5f4894af0cc4691c'),
    'pipeline-report': (0, '67e1861f4a17a73ce25c8ffeeffab63922321e9b654217de1081d99e9aa0ee32'),
    'powers-one-report': (0, 'f5cda6d589cbd40e097416bc82feb35a2d1986c6531f03f3a1705536972542bc'),
    'powers-neg0-report': (0, '5c520b2dcda2bcd7d56a062bc7477955d568e8e1cca5ee1f5ed588ad5ba1619a'),
    'ceq.json': (0, '4ec5b890faddd241b165f3b36e65b7d18e0b21362d00a3c1060463b10900fc0d'),
    'deq.json': (0, '96ceaf208e66f7abdd0c8a1060679da4013e9da53822007bf4e8cda297a5e5dd'),
    'ceq3.json': (0, '818dfecb38d74576b75738b8025150c4e0365dba2b42ee06e37076a43ecc33d1'),
    'deq3.json': (0, '49bfe2db4638ab1b12aa96662f6f198d0920cec182c43f5b5865533e04277716'),
    'ceq300.json': (0, 'b16a909f3ad0b10eff10af63308a597150c69db1b36c77ad0d27103caaa1163e'),
    'deq300.json': (0, 'd4578a319164aee76cb2194aed88304e9f00aa56de4a48e650d893d6e4ffb48e'),
    'ceq3-100.json': (0, '0e151c7697c8b61fa9bf018dfc75ebfcaf819c97a19d314acb32b5f9ba00e6e1'),
    'deq3-100.json': (0, 'd7be050ee026cb9c8472ce15b5a187c8f4b1fd2ceae37d3c22cc3327062d2716'),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict:
    """Runs every command once and digests what it wrote."""
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("golden"))
    try:
        _write_inputs()
        got = {}
        for name, argv in _COMMANDS:
            code = cli.main([*argv, "--out", f"{name}.out"])
            with open(f"{name}.out", "rb") as fh:
                got[name] = (code, hashlib.sha256(fh.read()).hexdigest())
            if name in _AFTER:
                _AFTER[name]()
        for path in _INPUTS:
            with open(path, "rb") as fh:
                got[path] = (0, hashlib.sha256(fh.read()).hexdigest())
        return got
    finally:
        os.chdir(home)


def test_corpus_covers_every_command():
    assert set(GOLDEN) == {name for name, _ in _COMMANDS} | set(_INPUTS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_frozen(corpus, name):
    assert corpus[name] == GOLDEN[name]


def test_a_loaded_sequence_has_the_bits_the_command_wrote(tmp_path, monkeypatch):
    # every gen output, and the overshear output, whose -0 tokens must read
    # back as -0.0: every command reads a sequence through `load_sequence`
    monkeypatch.chdir(tmp_path)
    written = []
    write = core.sequence_document

    def hook(ambient, array, generator=None):
        written.append(array)
        return write(ambient, array, generator)

    # `DiscreteSequence.to_document` reads core's name, the moves cli's
    monkeypatch.setattr(core, "sequence_document", hook)
    monkeypatch.setattr(cli, "sequence_document", hook)
    commands = dict(_COMMANDS)
    names = [name for name, argv in _COMMANDS if argv[0] == "gen"] + ["overshear-det"]
    for name in names:
        assert cli.main([*commands[name], "--out", f"{name}.out"]) == 0
        got = load_sequence(f"{name}.out").array
        assert got.shape == written[-1].shape
        assert np.array_equal(got.view(np.uint64), written[-1].view(np.uint64)), name
    parts = written[-1].view(np.float64)
    assert np.count_nonzero(np.signbit(parts) & (parts == 0)) > 0
