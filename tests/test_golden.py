"""Golden SHA-256 digests of the codec's bitstream, decoded frames, side-info
dump and back projection, and of the restorer's model file, restored frames
and training run.

Any refactor of the encoder, the decoder, the transform layer, the restorer
or the model writer must keep these byte-identical.  Regenerate only for a deliberate
format change.
"""

import hashlib
import json

import numpy as np
import pytest

from mvcodec import fixtures
from mvcodec.backproject import back_project_frame
from mvcodec.codec import CodecConfig, decode_sequence, encode_sequence, side_info_to_json
from mvcodec.restorer import TrainConfig
from mvcodec.restorer import (
    build_training_samples,
    init_restorer,
    restore_sequence,
    save_model,
    train_restorer,
)

CLIPS = {
    "texture": lambda: fixtures.translating_texture(4),
    "checker": lambda: fixtures.deforming_checker(4),
}

# (clip, qp, intra_period) -> (stream digest, decoded-frames digest)
GOLDEN = {
    ("texture", 0, 0): (
        "0a6932eb104be7f7c9cd102e6caf112de4a506911d520c6ca9ed0a54b51bd582",
        "c068ff0138eb893c313f9666f6ac39dbd07614415312155817300f44d6e894cb",
    ),
    ("texture", 0, 2): (
        "1ed5c7c0e33f98cd68699234457dc9217d6700b61734f93649405a7a988d4339",
        "0a4d9c40e968ff7deb8c76f4868acf494a37a846f8dae5ab459da8ad5d60bea9",
    ),
    ("texture", 16, 0): (
        "06105004895d47286e3612afed0e778e973f2e0301ef41c3c8d82c72a4749e51",
        "6e4386eb4610a367adfb1de736964674d6bfd7851aaab4b1d101d26aba44e2e8",
    ),
    ("texture", 16, 2): (
        "8504b5887f66efd74f1b9ada116b5fdb5b2d6a06b5b2abb198ab9ebf79b534db",
        "7d6dfe54df59ed385d7b06779576f71412dc733d34a7fd6f216c44b880c4228b",
    ),
    ("texture", 32, 0): (
        "165434a376b28d20104aa33a07edf9b99384c7c8eda18e1dee2c402ea4de0c8c",
        "f5ebbf585cb7af159607a97008b640b7f03e3e42ce20b0b7599b9986e6effa10",
    ),
    ("texture", 32, 2): (
        "4de672f2f3d7eb93e6766b0244797090b0753a60ad99bec06228d5cfae6bac9f",
        "16da69e02596eb8ce81e5b2ce745b1b70805a5f55f67d0fb9fff01cc376b049a",
    ),
    ("texture", 51, 0): (
        "617b954aae911988a2f5ae5e414143c5f96eb329a8ad6d6230b54e91f53014d4",
        "45f400490740946731e149364b900a76c75ab824a3d03ae4e1204e2f72683d46",
    ),
    ("texture", 51, 2): (
        "1261c4da7b1d06a3804693a870df6181d4dcb86318e3356c5f4885a3315cb7bf",
        "87d54cf49f25e4409aaf2156b541285650db1cfab700cfc1ffbd27b12f6987d6",
    ),
    ("checker", 0, 0): (
        "5071932db6c5641475e428146fdbb545077a4b082cf617c266af93883a6c6b27",
        "06eea556c13954ce595bd9ac9abb7b0772faaefcb99026f3dc1123d3e1fd806b",
    ),
    ("checker", 0, 2): (
        "a2cceec4c06b7f033bddeb52ead4bdf728b7bb7966e3068e4401d882668080b3",
        "7a544c1d6d2838ba240e22af46ba2e6d080f7a134929b41f8269100bd5bf6ea5",
    ),
    ("checker", 16, 0): (
        "71a0eeb8407f71c6056cc75df791afaf6fce974d010f79127523f011e19a3504",
        "9f5d99060c18af29d55062d956fcc933533e47df613f71848ae69f5d9048ad87",
    ),
    ("checker", 16, 2): (
        "98ea194906d06f5fc18ba28c55aac1bc8cccb3f3b201ade7c36d3eaf5b806a8b",
        "9f7d21a7fe7d6f2f3769e79a2cf1654aab79a14b03edf16610a812e9556d27bf",
    ),
    ("checker", 32, 0): (
        "4c7203e877e825a2d664b1950d7a43c4a0fccd617c0610efc26691d37e29d1d5",
        "cefb26d5a2d3432a0625a292ddddae924d1246f3551af74d3c17dbe85366a53d",
    ),
    ("checker", 32, 2): (
        "52ddccb7ec5740997552094b8e067b23234f67db4ee3ab7d0b5b6d860b8dadea",
        "78c098f7e221c081a561eb110bc2f894315188ef665d38b11ba2ab9bd2c025df",
    ),
    ("checker", 51, 0): (
        "3c4ca5db248922ece9e195fb225d5e1599c2f06fc0928527306265b7938bb2d5",
        "e8eed8f9be12151d6f7aa6fc5c87d82d3b8e8d5b7073adc1119f37df08aad8d1",
    ),
    ("checker", 51, 2): (
        "b0530835870ca827634b78f574d55025acef6dcd203a4f85d86c35677ad12534",
        "0e42fbf12195cf54f80ce573011bfd696de51e59ffaab171a7b3271830a94d9d",
    ),
}


@pytest.fixture(scope="module")
def clips():
    return {name: make() for name, make in CLIPS.items()}


@pytest.mark.parametrize("clip, qp, intra_period", sorted(GOLDEN))
def test_stream_and_decoded_frames_match_golden_digests(clips, clip, qp, intra_period):
    data = encode_sequence(clips[clip], CodecConfig(qp=qp, intra_period=intra_period))
    decoded, _ = decode_sequence(data)
    frames = b"".join(f.pixels.tobytes() for f in decoded)
    got = (hashlib.sha256(data).hexdigest(), hashlib.sha256(frames).hexdigest())
    assert got == GOLDEN[clip, qp, intra_period]

# (clip, qp, intra_period) -> digest of json.dumps(side_info_to_json(...), sort_keys=True)
GOLDEN_SIDE_INFO = {
    ("checker", 0, 0): "6dbf0b1a7a23aa320ee3a75ea414639c0f3ea5b3da3dcf88f0cc1956c596f01a",
    ("checker", 0, 2): "12d7c08927232d90e2c2daaf41402e89db91a5cd0812eac61d29786d73fcb4a0",
    ("checker", 16, 0): "3ead95b6a834cee93758e7e000cd711093de124b73656bb9531771feee015641",
    ("checker", 16, 2): "e5769d695f1c54259e88bb7b28013089691862cd99637d34e2177a882b4b3a63",
    ("checker", 32, 0): "3953e84e8b75d1231733fb8a754194984f06979121f38d12dc9032d2966e974f",
    ("checker", 32, 2): "3c81894bcd228fbd20e1ed68a523b9bb56cc8d16d17eee426b59b916760e9c20",
    ("checker", 51, 0): "71975ee3f4f70e3caea8d5e5b80f05c9631054575b31a33695e2e691ff3b8ce1",
    ("checker", 51, 2): "bda0015aff9ce1c8ebcb44de849d289e08330010fd44a523d89d107112a97fcb",
    ("texture", 0, 0): "742e6e4f927b6c12f74d19951cbab77c1dd7c170a73e3a497cd5b32f56f4b6d6",
    ("texture", 0, 2): "d002b999bac82cfdc14577fcda160b202e783845e33723c2d4857567364c3074",
    ("texture", 16, 0): "5fc8df726848fdcead2d0e0c36ce0fcb1e61a09416107f65ced37a069cbe6dd9",
    ("texture", 16, 2): "16319862e2564d8e39434c4a89a65074833ece5634a8d6ea753cd9b2991644ba",
    ("texture", 32, 0): "80d1cea806dc26f9e73a25ea8e9df084fe8ac35e7106f37643330589fc58d55b",
    ("texture", 32, 2): "cb10c4fe8f91976048eaf357d2356ba901c0ac05cb1a17eee2b4b55277f0c5b2",
    ("texture", 51, 0): "b989657e00ebd1822c72e1dd8a13473bcfce748fd0867c3e893521db73eaea05",
    ("texture", 51, 2): "41ab70864216dec83914f051deeab9ad6bea2e4747130abf8fa941a54a5d9c9f",
}

# (clip, qp) -> digest of every back_project_frame output for the candidates
# decoded frame + uniform(-30, 30) noise drawn from default_rng(qp)
GOLDEN_PROJECTED = {
    ("checker", 16): "e769ac3a60eaa6c7f8211517a4db869bb084a19e68fd3e36c64a57d7119c5cd2",
    ("checker", 32): "9d0dfe1418374104c25ebff9d54eb9603e5b2558a34b624e50d723c251677b7c",
    ("texture", 16): "3150e0c0846816ec9f24d0f052c7c7e6b5ab5fa3c8134021f4f003f7a478005d",
    ("texture", 32): "40af8ebd762b9d911135335e63fe3570d1a9a34aec901580c2ae1758893a8211",
}


@pytest.mark.parametrize("clip, qp, intra_period", sorted(GOLDEN_SIDE_INFO))
def test_side_info_json_matches_golden_digest(clips, clip, qp, intra_period):
    data = encode_sequence(clips[clip], CodecConfig(qp=qp, intra_period=intra_period))
    _, sides = decode_sequence(data)
    dump = json.dumps(side_info_to_json(sides), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == GOLDEN_SIDE_INFO[clip, qp, intra_period]


@pytest.mark.parametrize("clip, qp", sorted(GOLDEN_PROJECTED))
def test_back_projection_matches_golden_digest(clips, clip, qp):
    decoded, sides = decode_sequence(encode_sequence(clips[clip], CodecConfig(qp=qp)))
    rng = np.random.default_rng(qp)
    digest = hashlib.sha256()
    for frame, side in zip(decoded, sides):
        candidate = frame.as_float() + rng.uniform(-30, 30, frame.pixels.shape)
        digest.update(back_project_frame(candidate, side).pixels.tobytes())
    assert digest.hexdigest() == GOLDEN_PROJECTED[clip, qp]


# seed -> digest of the file save_model(init_restorer(seed=seed)) writes
GOLDEN_MODEL = {
    1: "13d426be3abd9aa058256b17edac018be3b02c20af5f0f5ded7848360a9b8e01",
    7: "1f90ca7a5d84e7d84f622c1e67c6e3f1d27ff00ecab99c91e34d3a1c138db968",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_MODEL))
def test_model_file_matches_golden_digest(tmp_path, seed):
    path = tmp_path / "model.mvdr"
    save_model(init_restorer(seed=seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MODEL[seed]


# (seed, back projection) -> digest of the restore_sequence frames of the
# texture clip coded at QP 36, by init_restorer(seed) with its output-side
# weights scaled 3x: unscaled, the residual stays under half a grey level and
# every restored frame would round back to the decoded one
GOLDEN_RESTORE = {
    (1, True): "684f96d1ac379c90ffde4df88d2fbe4b3384b464985048dbcb56885ca37a09c0",
    (1, False): "9d69a27e1b2f4f58b3179b26c4906cae2f18562142b1a2932bfce64ea53aeeca",
    (7, True): "361d89c315eb77766e956d62b7e706223c39812699ec8ccf23efe20404ef699e",
    (7, False): "261344901d27f91be9ff9ec749abb6c1cd5be834da3ceed821ad2c91ab3d8cff",
}
LOUD_LAYERS = ("agg1.w", "agg2.w", "rec1.w", "rec2.w")

# seed -> digest of the 8-iteration train_restorer loss trace (little-endian
# f64) followed by its final parameters in sorted name order, trained on the
# 32x32 crops of the texture clip coded at QP 36 (half window 2)
GOLDEN_TRAIN = {
    1: "802f4e1f3dc19a90c70ba6f71fe74bb9813d85186cebde8c9e3be0bf189f48bb",
    3: "67a670a002626aba25d5b9bb8d7c35257c4a4b0342a817b9a70bb35a4042d8ab",
}


@pytest.fixture(scope="module")
def texture_qp36(clips):
    frames = clips["texture"]
    decoded, sides = decode_sequence(encode_sequence(frames, CodecConfig(qp=36)))
    return frames, decoded, sides


@pytest.mark.parametrize("seed, back_projection", sorted(GOLDEN_RESTORE))
def test_restored_frames_match_golden_digest(texture_qp36, seed, back_projection):
    _, decoded, sides = texture_qp36
    model = init_restorer(seed=seed)
    for name in LOUD_LAYERS:
        model.params[name] *= 3.0
    restored = restore_sequence(decoded, sides, model, back_projection=back_projection)
    assert all((r.pixels != d.pixels).any() for r, d in zip(restored, decoded))
    digest = hashlib.sha256(b"".join(f.pixels.tobytes() for f in restored)).hexdigest()
    assert digest == GOLDEN_RESTORE[seed, back_projection]


@pytest.mark.parametrize("seed", sorted(GOLDEN_TRAIN))
def test_training_run_matches_golden_digest(texture_qp36, seed):
    frames, decoded, sides = texture_qp36
    samples = build_training_samples(frames, decoded, sides, half_window=2, crop=32)
    model, losses = train_restorer(samples, TrainConfig(iterations=8, seed=seed))
    digest = hashlib.sha256(np.asarray(losses, dtype="<f8").tobytes())
    for name in sorted(model.params):
        digest.update(model.params[name].astype("<f8").tobytes())
    assert digest.hexdigest() == GOLDEN_TRAIN[seed]
