"""Pinned digests that guard the byte-identity promise.

Two tiers:

* The RNG core (seed derivation, raw words, uniforms) uses only integer and
  exactly rounded float operations, so its digests hold on every platform.
* The ``replicate --seed 12345`` outputs, a small evolve history, and the
  outputs of ``simulate`` and ``diagnose`` on gbm and glevy go
  through transcendental numpy kernels whose last bits depend on the numpy
  build and on its SIMD dispatch target.  Their digests are checked only
  where both match the recorded environment; elsewhere the tests are skipped
  with the reason.  Fingerprints of the replicate CSVs, checked to a
  relative 1e-12, hold on every platform.

A change that moves any of these bits must say so and re-pin them.
"""

import csv
import hashlib

import numpy as np
import pytest

from stokit import GeometricBrownian, PoolConfig, evolutionary_optimize
from stokit.cli import _dispatch_targets, main
from stokit.rng import RngStream, derive_seed

PAIRS = [(0, 0), (12345, 0), (12345, 7), (2**64 - 1, 3),
         (derive_seed(12345, 1), 239)]


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def test_derive_seed_digest():
    got = _digest(str(derive_seed(s, i, *salt)).encode()
                  for s, i in PAIRS for salt in ((), (2**63,)))
    assert got == "33d2dc98c73d97a6ba0df09364186ded044191a60a3ac6edff6cf6990cc53c7e"


def test_raw_words_digest():
    got = _digest(RngStream(s, i)._words(1000).astype("<u8").tobytes()
                  for s, i in PAIRS)
    assert got == "c641fbbf473832f9751265e720c26f3dc904921b88bc0d63de251e9265d24d8e"


def test_uniforms_digest():
    got = _digest(RngStream(s, i).uniforms(1000).astype("<f8").tobytes()
                  for s, i in PAIRS)
    assert got == "1c9bec0848487612e8c8e18da2d0e6cce62380417b3e37b4172ef2e705acb8cd"


RECORDED_NUMPY = "2.4.6"
RECORDED_DISPATCH = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]
REPLICATE_DIGESTS = {
    "fig1.csv": "6cab03e474a57fc8902b16f40adea0d472254502976615b5015c839d4baebfdb",
    "fig1.svg": "a82bf754980b877681b90899775257bd0b9551713a1065806350ed1c9ea8029e",
    "fig2.csv": "b1dba974b917e98871d6533f049f0f0473c4d49e1cbc6ed05b4abb6a5c3ace14",
    "fig2.svg": "b3bab77ae086e00cbe7929efd9001e5e38c475b151f724354e0613079377b716",
    "fig3.csv": "b48d10e847730257a775ef477264134b1a5fdd83c82bdfac24bdd9771afcd77f",
    "fig3.svg": "1426b0189139c76ecfd94baa8564fc37a404a1071edb565a02faffd9e2a3c2d9",
    "fig4.csv": "a322e64065b156ce1bee5b840a8b4555be06bb52a828afdec071c302273fc9f8",
    "fig4.svg": "99049608730dfc5251f8eb2b1a1edebac3256f1c830eb4c02c5509d8ad8aa0c8",
    "fig5.csv": "2d774c722eb96606eee16e957ec76f6247df0e8a6e1d5647f42b5eaf68ca79ce",
    "fig5.svg": "5c94df7d038d19bed5cb4dc61c2a2c13e44ad10fa732c9f039a3d9383befe960",
}


def _require_recorded_environment():
    environment = (np.__version__, _dispatch_targets())
    if environment != (RECORDED_NUMPY, RECORDED_DISPATCH):
        pytest.skip(f"digests recorded with numpy {RECORDED_NUMPY} dispatching "
                    f"to {RECORDED_DISPATCH}; running numpy {environment[0]} "
                    f"dispatching to {environment[1]}")


@pytest.fixture(scope="module")
def replicate_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("replicate")
    assert main(["replicate", "--outdir", str(outdir), "--seed", "12345"]) == 0
    return outdir


def test_replicate_digests(replicate_dir):
    _require_recorded_environment()
    lines = (replicate_dir / "manifest.txt").read_text().splitlines()
    got = dict(line.split("\t") for line in lines if not line.startswith("#"))
    assert got == REPLICATE_DIGESTS


# (rows, columns, blank or nan cells), then the sums of log1p|v| over the
# other cells: plain, weighted by row number and weighted by column number.
REPLICATE_FINGERPRINTS = {
    "fig1.csv": ((401, 12, 600),
                 (3266.2393988612794, 665458.4537800569, 24996.252898022933)),
    "fig2.csv": ((401, 16, 0),
                 (4971.1099875002565, 1017669.5746897352, 41892.02643623688)),
    "fig3.csv": ((1001, 4, 0),
                 (2969.2042754646527, 1613713.8425243846, 5911.555198350057)),
    "fig4.csv": ((5001, 3, 50),
                 (19529.974642914152, 51056776.004595935, 24277.61898122429)),
    "fig5.csv": ((251, 66, 0),
                 (6892.843542386706, 842699.277340834, 232897.51452793108)),
}


def _fingerprint(text: str):
    rows = list(csv.reader(text.splitlines()[1:]))
    cells = np.array([[float(c) if c else np.nan for c in row] for row in rows])
    g = np.log1p(np.abs(np.nan_to_num(cells, nan=0.0)))
    i, j = np.indices(g.shape)
    return ((*cells.shape, int(np.isnan(cells).sum())),
            (g.sum(), (g * (i + 1)).sum(), (g * (j + 1)).sum()))


@pytest.mark.parametrize("name", sorted(REPLICATE_FINGERPRINTS))
def test_replicate_fingerprints(replicate_dir, name):
    shape, sums = _fingerprint((replicate_dir / name).read_text())
    want_shape, want_sums = REPLICATE_FINGERPRINTS[name]
    assert shape == want_shape
    np.testing.assert_allclose(sums, want_sums, rtol=1e-12, atol=0.0)


def test_evolve_history_digest():
    _require_recorded_environment()
    config = PoolConfig(n_agents=10, generations=4, mutation_sd=0.1,
                        survivor_share=0.25, horizon=20.0, dt=0.01,
                        paths_per_eval=30, f_min=0.0, f_max=3.0, seed=12345)
    best, history = evolutionary_optimize(config, GeometricBrownian(mu=0.05, sigma=0.2))
    # The final best fraction, then (best fraction, best fitness) per generation.
    record = np.array([best, *np.ravel(history)])
    assert _digest([record.astype("<f8").tobytes()]) == \
        "6acd694969ac9c2766a2acc16296e9ec6b6d03e9983c1c86bfa28e356abbb7a3"


# `simulate` and `diagnose` runs pinned by the sha256 of every output file: a
# file from each of gbm and glevy, then `diagnose` on it with --in and inline,
# with every diagnostic and --svg, and with two fan levels alone.
SIMULATE_SPECS = {
    "gbm": ["--mu", "0.05", "--sigma", "0.2"],
    "glevy": ["--alpha", "1.55", "--beta", "0.2", "--scale", "0.35", "--loc", "0.02"],
}
SIMULATE_RUN = ["--t", "2", "--dt", "0.01", "--n", "200", "--seed", "12345"]
DIAGNOSE_FLAGS = {
    "all": ["--fan", "--summary", "--growth", "--preasym", "--preasym-window", "20",
            "--svg"],
    "levels": ["--fan-levels", "0.025,0.5"],
}
# The inline runs' outputs are pinned to the same digests as the --in runs'.
CLI_DIGESTS = {
    "gbm.csv": "85854a29f355f8a7749e15eb741d6f398703eaf360aa363d8fbe434d8024fa3b",
    "gbm_all_fan.csv": "391ddb68f506d8ec76ccd93f5e2fcd2787fa7f4c28e41ae2bb4b10fd5ffc150f",
    "gbm_all_fan.svg": "01ac5aa95275522e680cf9fc5bcb34a3a897f3918288fa476d6d74713ecb669c",
    "gbm_all_growth.csv": "34d06ca594187025c2da56daffe82e73e100d275016bc03a2272fcd7d13805cf",
    "gbm_all_preasym.csv": "fecf624fc363b3bfa7ef632e0e58473723ca5cc0370295963854423ad7fb4e31",
    "gbm_all_preasym.svg": "14aa046e8edf327d91d423a0bd10398ca62dabc05c9ef11b89723dc5b0639f78",
    "gbm_all_summary.csv": "cd323a8dc3cf79cdb1de9e3b6edaf0d3ea087740993520065637e2d1434589d9",
    "gbm_all_summary.svg": "52a25ea9dac298b79c856f72c314348124df6ee39aa113393f9e59d42d93a290",
    "gbm_levels_fan.csv": "6023305303baff75fc43deebb4490414db5060644905e9037d672726c5b36fd7",
    "glevy.csv": "df97657a19f73fb93b0f2da57d03f549ebbeb99253f6042a139dcc489a30f548",
    "glevy_all_fan.csv": "f430e1bcd72a0275682e0665848bd4e83a376b385acea656c24225dd4e10685d",
    "glevy_all_fan.svg": "f67121851775508de3db209ff7e3d19a76a0f057e1e6e4e8899f376d5f4f3cbe",
    "glevy_all_growth.csv": "678898a2d0a9a641c0c0663b6db6f1d9c2564d504436150534bc228ab74e8881",
    "glevy_all_preasym.csv": "84ab8e399a1c129ea4330175908661146b2c5b08cf77231006f585bc9a28e345",
    "glevy_all_preasym.svg": "9300a3f761b6c24ad1ceb783d7fa0474555ae4d3ebf399e2669e07a154135b0c",
    "glevy_all_summary.csv": "5708b01e5a13b4ca8ee5a1e66866b7f4fd3e8b292d7b302aa280ae06fea951ce",
    "glevy_all_summary.svg": "290aa818550339aae9e4c9e0a12f00690c1044532fac8629f7f395fc4c661d12",
    "glevy_levels_fan.csv": "d3bc7894d49e6fba224d6a0aed9abe4c8dbe30cb7dd42231f4b5007566548e15",
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """``{file name: sha256}`` of every output of the pinned runs."""
    outdir = tmp_path_factory.mktemp("cli")
    for family, spec in SIMULATE_SPECS.items():
        ensemble = outdir / f"{family}.csv"
        assert main(["simulate", family, *spec, *SIMULATE_RUN, "--out", str(ensemble)]) == 0
        for name, flags in DIAGNOSE_FLAGS.items():
            assert main(["diagnose", "--in", str(ensemble), *flags,
                         "--out-prefix", str(outdir / f"{family}_in_{name}")]) == 0
            assert main(["diagnose", "--family", family, *spec, *SIMULATE_RUN, *flags,
                         "--out-prefix", str(outdir / f"{family}_inline_{name}")]) == 0
    return {path.name: _digest([path.read_bytes()]) for path in sorted(outdir.iterdir())}


def test_simulate_and_diagnose_digests(cli_outputs):
    _require_recorded_environment()
    simulated = {name: digest for name, digest in cli_outputs.items() if "_" not in name}
    for source in ("in", "inline"):
        got = {name.replace(f"_{source}_", "_"): digest
               for name, digest in cli_outputs.items() if f"_{source}_" in name}
        assert {**simulated, **got} == CLI_DIGESTS, source
