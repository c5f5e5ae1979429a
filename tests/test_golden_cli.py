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

from tamelab import cli
from tamelab.core import DiscreteSequence, sln


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


def _write_inputs() -> None:
    cs = [np.diag([float(k), 1.0 / k]).astype(complex) for k in range(1, 16)]
    ds = [c @ np.array([[1.0, float(k)], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
    for path, pts in (("ceq.json", cs), ("deq.json", ds)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cli.canonical_json(DiscreteSequence(sln(2), tuple(pts)).to_json()))
    rng = np.random.default_rng(20170)
    for path, count in (("rand40.json", 40), ("rand12.json", 12)):
        doc = _pair_doc([_random_sl2(rng) for _ in range(count)])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    # more than 40 points, so the push fits the barycentric form
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
    # the two transforms left that move a prefix through core.apply_all
    ("flat-shears", ["transform", "shears", "flat60.json", "--height", "6", "--seed", "1"]),
    ("center", ["transform", "center-separate", "sg.out", "--seed", "1"]),
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
    'equivalence': (0, 'e6901f8fcb0f7f5aec09528f3cc7a6549ff0ffb38f0b54ddc1c61b7fa8ec2f1d'),
    'classify': (0, 'bed7db0f21aebcb4a7eb8b4e0f295fdc15901a396ccb256b24064be291931783'),
    'punctured': (2, 'e7bfa1bfa042f0d0fb6194ada82501f179f3597ce765ce01d8137c5ee8da70c9'),
    'omega': (0, '1cfbb49606a1f63e312f43fc4fc5f98f908502f1ef2996d7a112aeaaaac29a29'),
    'measure': (0, 'cc46083b29ea84e73128834150f0e89843a721a1ba3f6126a29f5388d6b05ba0'),
    'threshold': (0, '195fc9309f20fe0038e269e868444e4a047f620d628bde262ca1c62d801f2a6b'),
    'mc-g': (0, 'bc6293bfbfab97de6bd5cab9d2e6771d8aa50828b16e8543f35326c9da15c921'),
    'measure-blocks': (0, 'd25dfb0c5027c43ab503ca2f7871a1b2ab2b0c7b906e718702b113b19eb87fd9'),
    'threshold-blocks': (0, 'dadf107eb7aeffdb9674724e3994bcfa3f9e8a798ad003d64e5b6e352b332367'),
    'mc-g-tail': (0, 'b7ef743ac512c17fcc6f255813e8fe5c5362b6d33e0aee6aab2cac3bba47af0a'),
    'measure-tail': (0, '6371d4d1d5808d90c55b76a5187899d332b4f6a74484d2d1b1c465d7ae337eeb'),
    'threshold-tail': (0, '466fe1f78e2d7fbc257b3f2aa48e570de80d593459eae2ed500bcf23fbe53174'),
    'omega-blocks': (0, 'cae9714d43c0c33a905bcd2a33c50e2ec259adb44f6bb2b3b10bfae7255553f5'),
    'pipeline': (0, 'db423ab1fe5849d46477edad9b28cf91ed3119fe2161e166564f3decea5056e5'),
    'bounds-report': (0, '4dbbe9f5ab890602dcb043d7aea17fae76ce0ca119dc960a03e6472dcaf09215'),
    'report': (0, 'c14bf851429c3a9e09a8b9a4a3367b8d6f40aac1b7189663effe98c55167b2c4'),
    'powers': (0, 'f5cda6d589cbd40e097416bc82feb35a2d1986c6531f03f3a1705536972542bc'),
    'powers-report': (0, 'f5cda6d589cbd40e097416bc82feb35a2d1986c6531f03f3a1705536972542bc'),
    'powers-series': (0, '461500f5ab8ef63e08982c4788febd63ccae9f23cdebb73e9de27f768e524e4a'),
    'gauss-pi': (0, 'c1e2551ebd4f0db380f7f5045c0a46b997762d11d0ab6733002695c69b155d46'),
    'rand-pi': (0, 'aa42adc4d7502ad8e101ccfa4171ee12fbb9b8af2eeb2e1722ca009a51e924d5'),
    'rand-overshears': (0, '534fc6dbeb3aab75725fd1e33bbba38cb9fef5ff1b291ab31d117284e4b44536'),
    'rand-overshears-report': (0, '534fc6dbeb3aab75725fd1e33bbba38cb9fef5ff1b291ab31d117284e4b44536'),
    'rand-union': (0, '8ba3a79a04a32b2e2ecab7d0b99011e5b0a656eec577b3e1fc7e6a874bd1f7fd'),
    'rand-push': (0, 'b11caffdd44cfe1235ca2fb90bf8ac2e3fa31729f165ca022e46c11f429ffbd1'),
    'rand12-push': (0, '55ff9351acc2bf37e988f2770ed1b8878e973da0403fb35aa4b9560c97477b72'),
    'rand120-push': (0, 'd699deae0630fee2e57abff3ddf924ef869afd4bdb5cd5eb2d900cdf2302a0fa'),
    'sl3-push': (0, 'b2f6984c22ca4c44c1603f0d95118fd2b1cbdfec0f440c235142947c3bb9944c'),
    'flat-shears': (0, '340d065744007d36aec60a1efabc6b37ac32596f2815cbc2d51924e8c905617f'),
    'center': (0, '3fdd5908b2ed65f0701203221f727a97daee0b79834598845130416ca67ebc35'),
    'ceq.json': (0, '4ec5b890faddd241b165f3b36e65b7d18e0b21362d00a3c1060463b10900fc0d'),
    'deq.json': (0, '96ceaf208e66f7abdd0c8a1060679da4013e9da53822007bf4e8cda297a5e5dd'),
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
        for path in ("ceq.json", "deq.json"):
            with open(path, "rb") as fh:
                got[path] = (0, hashlib.sha256(fh.read()).hexdigest())
        return got
    finally:
        os.chdir(home)


def test_corpus_covers_every_command():
    assert set(GOLDEN) == {name for name, _ in _COMMANDS} | {"ceq.json", "deq.json"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_frozen(corpus, name):
    assert corpus[name] == GOLDEN[name]
