"""Seeded, bounded fuzzing of the two untrusted binary formats, CMV1 and CMCK.

Every case is the valid file with some bytes flipped (half of the flips land
in the header), cut short, or with bytes appended. A case must either load
or raise a ValueError; a cut or extended file must always raise, and every
error of the CMV1 reader must name the file.
"""

from collections import Counter

import numpy as np

from cmssl.codec import _HEADER, RawVideo, decode_video, encode_video, read_cmv1, write_cmv1
from cmssl.networks import _CKPT_HEADER, ModelBundle, ModelConfig, TransformerConfig, load_checkpoint, save_checkpoint

CASES = 300


def mutants(data: bytes, header_bytes: int, seed: int):
    """(kind, bytes) pairs: CASES seeded variants of data, a third of each kind."""
    rng = np.random.default_rng(seed)
    for i in range(CASES):
        kind = ("flip", "truncate", "append")[i % 3]
        buf = bytearray(data)
        if kind == "flip":
            for _ in range(rng.integers(1, 4)):
                span = header_bytes if rng.random() < 0.5 else len(buf)
                buf[rng.integers(span)] ^= int(rng.integers(1, 256))
        elif kind == "truncate":
            del buf[rng.integers(len(buf)) :]
        else:
            buf += rng.integers(0, 256, size=rng.integers(1, 64), dtype=np.uint8).tobytes()
        yield kind, bytes(buf)


def fuzz(load, path, header_bytes: int, seed: int) -> Counter:
    """Run load on every mutant of the file at path; count the outcomes."""
    data = path.read_bytes()
    outcomes = Counter()
    for kind, buf in mutants(data, header_bytes, seed):
        path.write_bytes(buf)
        try:
            load(path)
        except ValueError:
            outcomes[kind, "rejected"] += 1
        else:
            assert kind == "flip", f"a {kind}d file of {len(buf)} bytes (from {len(data)}) loaded"
            outcomes[kind, "loaded"] += 1
    return outcomes


def read_and_decode(path):
    try:
        cv = read_cmv1(path)
    except ValueError as e:
        assert str(path) in str(e), f"read_cmv1 error does not name the file: {e}"
        raise
    decode_video(cv)


def test_cmv1_mutants_load_or_raise_a_named_value_error(tmp_path):
    rng = np.random.default_rng(0)
    base = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    frames = np.stack([np.roll(base, (t, 2 * t), axis=(0, 1)) for t in range(13)])
    path = tmp_path / "video.cmv1"
    write_cmv1(encode_video(RawVideo(frames=frames)), path)
    outcomes = fuzz(read_and_decode, path, _HEADER.size, seed=1)
    # pixel flips decode, header and MV flips do not
    assert outcomes["flip", "loaded"] > 0 and outcomes["flip", "rejected"] > 0, outcomes


def test_cmck_mutants_load_or_raise_a_value_error(tmp_path):
    config = ModelConfig(
        input_size=8, clip_len=4, mv_len=4, v_channels=(2, 2, 2), i_channels=(2, 2, 2), m_channels=(2, 2, 2),
        embed_dim=4, head_hidden=4,
        transformer=TransformerConfig(encoder_layers=1, decoder_layers=1, width=4, heads=1, ff_width=4),
    )
    path = tmp_path / "model.cmck"
    save_checkpoint(ModelBundle(config, seed=0), path)
    (meta_bytes,) = np.frombuffer(path.read_bytes()[6:10], dtype="<u4")
    outcomes = fuzz(load_checkpoint, path, _CKPT_HEADER.size + int(meta_bytes), seed=2)
    assert outcomes["flip", "loaded"] > 0 and outcomes["flip", "rejected"] > 0, outcomes
