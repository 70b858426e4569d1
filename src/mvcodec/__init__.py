"""Deterministic mini video codec plus a codec-prior-guided restoration toolkit.

The package splits into:

- :mod:`mvcodec.frames` - frame values, PGM/manifest I/O, PSNR/SSIM
- :mod:`mvcodec.transform` - block DCT, flat quantizer, interval bounds
- :mod:`mvcodec.codec` - the closed-loop encoder/decoder and side info
- :mod:`mvcodec.backproject` - quantization-interval projection
- :mod:`mvcodec.alignment` - MV-guided warping and deformable gathering
- :mod:`mvcodec.nn` / :mod:`mvcodec.restorer` - the trainable restorer
- :mod:`mvcodec.fixtures` - seeded synthetic sequences for tests and demos
- :mod:`mvcodec.cli` - the ``mvcodec`` command-line tool
"""

from .frames import Frame, load_sequence, psnr, ssim, write_sequence
from .transform import QuantTable, coeff_bounds, dct2d, dequantize, idct2d, quantize
from .codec import (
    CodecConfig,
    SideInfo,
    decode_sequence,
    encode_sequence,
)
from .backproject import back_project, back_project_frame
from .restorer import (
    RestorerModel,
    TrainConfig,
    init_restorer,
    load_model,
    restore_sequence,
    restorer_forward,
    save_model,
    train_restorer,
)

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "load_sequence",
    "write_sequence",
    "psnr",
    "ssim",
    "QuantTable",
    "dct2d",
    "idct2d",
    "quantize",
    "dequantize",
    "coeff_bounds",
    "CodecConfig",
    "SideInfo",
    "encode_sequence",
    "decode_sequence",
    "back_project",
    "back_project_frame",
    "RestorerModel",
    "TrainConfig",
    "init_restorer",
    "train_restorer",
    "restore_sequence",
    "restorer_forward",
    "save_model",
    "load_model",
    "__version__",
]
