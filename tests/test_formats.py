"""The on-disk bytes of the EVF and UAEM containers, pinned by sha256.

The round-trip tests elsewhere would pass with any self-consistent layout;
these hold ``write_volume`` and ``save_model`` to the exact bytes of the
format, so files written earlier stay readable and files written now stay
readable by earlier readers.  Every input is built from exact values (no
random draw, no factorization), so the digests do not depend on the host's
BLAS or LAPACK.
"""

import hashlib
import io
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from voxelmatch.model import ProjectionModel, load_model, save_model
from voxelmatch.volume import (
    EmbeddingVolume,
    LabelVolume,
    ScalarVolume,
    VolumeGeometry,
    read_volume,
    write_volume,
)

GEOM = VolumeGeometry((3, 2, 2), (1.0, 1.5, 2.0), (-4.0, 0.5, 10.25))
# unit rows and two zero rows, as a normalized embedding keeps them after substitution
ROWS = [(0.6, 0.8), (0.8, -0.6), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 0.0)] * 2


def volumes():
    return {
        "scalar": ScalarVolume(GEOM, np.arange(12, dtype=np.float32).reshape(2, 2, 3) / 8 - 0.5),
        "label": LabelVolume(GEOM, (np.arange(12).reshape(2, 2, 3) % 5) * 1000),
        "embedding": EmbeddingVolume(
            GEOM, np.array(ROWS, dtype=np.float32).reshape(2, 2, 3, 2), zero_substitutions=2,
        ),
    }


def heads(n):
    return [np.arange(22, dtype=np.float64).reshape(11, 2) / (7 + i) - i for i in range(n)]


EVF_SHA256 = {
    "scalar": "b4122615d2d1364eb1fe701f8eea585eb19a6bb45dbef1fad406a79952c9c2ea",
    "label": "ce201a216b239783c30be8fbe70f64ee1eca10c009d47bfececf115ffd4b9311",
    "embedding": "291f6b4e2c49997fe4dfc44e08514a91d153735b2aa1a99e8ac89c0836518a94",
}
UAEM_SHA256 = {  # by head count
    2: "0d806e5c9d82de65f795a0e9e27a4348c7c3da07bd67648e1b2990d0e9b6f9eb",
    3: "3620d4959c12f74218acf2d1ef4aaee9fa185742852324b80ba09048635ca402",
}


def sha256(write, obj) -> str:
    buf = io.BytesIO()
    write(obj, buf)
    return hashlib.sha256(buf.getvalue()).hexdigest()


@pytest.mark.parametrize("kind", sorted(EVF_SHA256))
def test_evf_bytes_are_pinned(tmp_path, kind):
    vol = volumes()[kind]
    assert sha256(write_volume, vol) == EVF_SHA256[kind]
    write_volume(vol, tmp_path / "vol.evf")
    assert hashlib.sha256((tmp_path / "vol.evf").read_bytes()).hexdigest() == EVF_SHA256[kind]


@pytest.mark.parametrize("n_heads", sorted(UAEM_SHA256), ids=["no-semantic", "semantic"])
def test_uaem_version_2_bytes_are_pinned(tmp_path, n_heads):
    hs = heads(n_heads)
    model = ProjectionModel(hs[0], hs[1], hs[2] if n_heads == 3 else None, round_index=3)
    assert sha256(save_model, model) == UAEM_SHA256[n_heads]
    save_model(model, tmp_path / "model.uaem")
    assert hashlib.sha256((tmp_path / "model.uaem").read_bytes()).hexdigest() == UAEM_SHA256[n_heads]


@pytest.mark.parametrize("n_heads", [2, 3])
def test_hand_built_version_1_file_loads_to_the_maps_of_its_heads(n_heads):
    rng = np.random.default_rng(n_heads)
    ws = [rng.normal(0.0, 0.3, (11, 16)) for _ in range(n_heads)]
    header = struct.pack("<HBBIIfffI", 1, 0b111 if n_heads == 3 else 0b011, 0, 11, 16, 0.5, 0.5, 0.5, 4)
    payload = b"".join(w.astype("<f8").tobytes() for w in ws)
    raw = b"UAEM" + header + payload + struct.pack("<I", zlib.crc32(header + payload) & 0xFFFFFFFF)
    model = load_model(io.BytesIO(raw))
    got = [model.w_coarse, model.w_fine, model.w_semantic][:n_heads]
    assert model.round_index == 4 and (model.w_semantic is None) == (n_heads == 2)
    for m, w in zip(got, ws, strict=True):
        assert np.array_equal(m, np.linalg.qr(w.T)[1].T)


def test_reading_a_volume_holds_one_copy_of_its_payload():
    n = 128
    data = np.arange(n**3, dtype=np.float32).reshape(n, n, n) / n**2
    src = io.BytesIO()
    write_volume(ScalarVolume(VolumeGeometry((n, n, n)), data), src)
    src.seek(0)
    tracemalloc.start()
    try:
        vol = read_volume(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(vol.data, data)
    assert peak <= 1.25 * data.nbytes
