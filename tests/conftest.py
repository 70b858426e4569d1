import pytest

from mvcodec import codec, fixtures


@pytest.fixture(scope="session")
def texture_frames():
    return fixtures.translating_texture(6, seed=7)


@pytest.fixture(scope="session")
def checker_frames():
    return fixtures.deforming_checker(6, seed=3)


@pytest.fixture(scope="session")
def coded_texture_qp24(texture_frames):
    """(stream bytes, encoder reconstructions, decoded frames, side infos)."""
    config = codec.CodecConfig(qp=24)
    data, recons = codec.encode_with_reconstruction(texture_frames, config)
    decoded, sides = codec.decode_sequence(data)
    return data, recons, decoded, sides
