"""Command-line front end: encode, decode, extract, restore, metrics, rdcurve, train.

Exit codes: 0 success, 1 I/O failure, 2 invalid input or usage, 3 numerical
abort.  All commands are deterministic given their inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .codec import (
    CodecConfig,
    decode_sequence,
    encode_sequence,
    side_info_to_json,
)
from .frames import (
    Frame,
    load_sequence,
    psnr,
    ssim,
    write_atomic,
    write_sequence,
)
from .restorer import (
    HALF_WINDOW,
    TrainConfig,
    build_training_samples,
    load_model,
    restore_sequence,
    save_model,
    train_restorer,
)

def _check_pairable(reference: list[Frame], test: list[Frame]) -> None:
    if len(reference) != len(test):
        raise ValueError(
            f"frame count mismatch: {len(reference)} reference vs {len(test)} test"
        )
    if (reference[0].width, reference[0].height) != (test[0].width, test[0].height):
        raise ValueError(
            f"frame size mismatch: {reference[0].width}x{reference[0].height} reference "
            f"vs {test[0].width}x{test[0].height} test"
        )


def _pair_metrics(reference: list[Frame], test: list[Frame]) -> dict:
    _check_pairable(reference, test)
    psnrs = [psnr(r, t) for r, t in zip(reference, test)]
    ssims = [ssim(r, t) for r, t in zip(reference, test)]
    return {
        "count": len(reference),
        "psnr": psnrs,
        "ssim": ssims,
        "mean_psnr": float(np.mean(psnrs)),
        "mean_ssim": float(np.mean(ssims)),
    }


def _bits_per_pixel(data: bytes, width: int, height: int, count: int) -> float:
    return 8.0 * len(data) / (width * height * count)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    frames = load_sequence(args.manifest)
    config = CodecConfig(qp=args.qp, search_radius=args.radius, split_threshold=args.tau)
    data = encode_sequence(frames, config)
    write_atomic(args.output, data)
    bpp = _bits_per_pixel(data, frames[0].width, frames[0].height, len(frames))
    print(f"bits={8 * len(data)} bpp={bpp:.6f}")
    return 0


def cmd_decode(args) -> int:
    frames, _ = decode_sequence(Path(args.input).read_bytes())
    manifest = write_sequence(args.output, frames)
    print(f"decoded {len(frames)} frames -> {manifest}")
    return 0


def cmd_extract(args) -> int:
    _, sides = decode_sequence(Path(args.input).read_bytes())
    doc = side_info_to_json(sides)
    write_atomic(args.output, (json.dumps(doc, indent=1) + "\n").encode("ascii"))
    if args.pred_dir:
        write_sequence(args.pred_dir, [side.prediction for side in sides])
    print(f"side info for {len(sides)} frames -> {args.output}")
    return 0


def cmd_restore(args) -> int:
    decoded, sides = decode_sequence(Path(args.input).read_bytes())
    model = load_model(args.model)
    # a reference that cannot be compared fails before anything is written
    reference = load_sequence(args.reference) if args.reference else None
    if reference is not None:
        _check_pairable(reference, decoded)
    restored = restore_sequence(
        decoded, sides, model, back_projection=not args.no_backprojection
    )
    manifest = write_sequence(args.output, restored)
    print(f"restored {len(restored)} frames -> {manifest}")
    if reference is not None:
        report = {
            "decoded": _pair_metrics(reference, decoded),
            "restored": _pair_metrics(reference, restored),
        }
        print(json.dumps(report, indent=1))
    return 0


def cmd_metrics(args) -> int:
    reference = load_sequence(args.reference)
    test = load_sequence(args.test)
    report = _pair_metrics(reference, test)
    write_atomic(args.output, (json.dumps(report, indent=1) + "\n").encode("ascii"))
    print(f"mean_psnr={report['mean_psnr']:.4f} mean_ssim={report['mean_ssim']:.6f}")
    return 0


def cmd_rdcurve(args) -> int:
    frames = load_sequence(args.manifest)
    try:
        qps = [int(tok) for tok in args.qps.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --qps list {args.qps!r}") from exc
    if not qps or len(set(qps)) != len(qps):
        raise ValueError("--qps must be a non-empty list of distinct integers")
    qps.sort()
    model = load_model(args.model) if args.model else None
    rows = []
    for qp in qps:
        config = CodecConfig(qp=qp, search_radius=args.radius, split_threshold=args.tau)
        data = encode_sequence(frames, config)
        decoded, sides = decode_sequence(data)
        bpp = _bits_per_pixel(data, frames[0].width, frames[0].height, len(frames))
        dec = _pair_metrics(frames, decoded)
        if model is not None:
            restored = restore_sequence(decoded, sides, model)
            rest = _pair_metrics(frames, restored)
        else:
            rest = dec
        rows.append(
            (qp, bpp, dec["mean_psnr"], rest["mean_psnr"], dec["mean_ssim"], rest["mean_ssim"])
        )
    lines = ["qp,bpp,psnr_dec,psnr_rest,ssim_dec,ssim_rest"]
    for qp, bpp, pd, pr, sd, sr in rows:
        lines.append(f"{qp},{bpp:.6f},{pd:.4f},{pr:.4f},{sd:.6f},{sr:.6f}")
    write_atomic(args.output, ("\n".join(lines) + "\n").encode("ascii"))
    print("\n".join(lines))
    return 0


def cmd_train(args) -> int:
    dataset_path = Path(args.dataset)
    entries = [ln.strip() for ln in dataset_path.read_text().splitlines() if ln.strip()]
    if not entries:
        raise ValueError(f"dataset manifest {dataset_path} lists no sequences")
    config = CodecConfig(qp=args.qp)
    samples = []
    for entry in entries:
        # an absolute entry stays as it is
        originals = load_sequence(dataset_path.parent / entry)
        decoded, sides = decode_sequence(encode_sequence(originals, config))
        # 32x32 tiles keep the loop fast; frames smaller than that train whole
        crop = 32 if originals[0].width >= 32 and originals[0].height >= 32 else None
        samples.extend(
            build_training_samples(originals, decoded, sides, half_window=HALF_WINDOW, crop=crop)
        )
    train_config = TrainConfig(iterations=args.iters, seed=args.seed)
    model, losses = train_restorer(samples, train_config)
    save_model(model, args.output)
    loss_csv = Path(str(args.output) + ".loss.csv")
    rows = "".join(f"{i},{loss:.8f}\n" for i, loss in enumerate(losses))
    write_atomic(loss_csv, ("iteration,loss\n" + rows).encode("ascii"))
    last = f"{losses[-1]:.6f}" if losses else "n/a"
    print(f"trained on {len(samples)} samples; final loss {last}")
    print(f"model -> {args.output}; loss trace -> {loss_csv}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcodec",
        description="Mini video codec with codec-prior-guided restoration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the encoder flags that encode and rdcurve share
    coding = argparse.ArgumentParser(add_help=False)
    coding.add_argument("--radius", type=int, default=8, help="motion search radius (default 8)")
    coding.add_argument("--tau", type=float, default=6.0,
                        help="quadtree split threshold, used in tenths (default 6.0)")

    p = sub.add_parser("encode", parents=[coding],
                       help="encode a PGM sequence to a .mvc bitstream")
    p.add_argument("manifest", help="sequence manifest (W H FPS header, one path per line)")
    p.add_argument("--qp", type=int, required=True, help="quantization parameter, 0..51")
    p.add_argument("-o", "--output", required=True, help="output .mvc path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a .mvc bitstream to PGM frames")
    p.add_argument("input", help=".mvc bitstream")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("extract", help="dump side information from a bitstream")
    p.add_argument("input", help=".mvc bitstream")
    p.add_argument("-o", "--output", required=True, help="side-info JSON path")
    p.add_argument("--pred-dir", help="also write the prediction frames here as a PGM sequence")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("restore", help="decode and run the trained restorer")
    p.add_argument("input", help=".mvc bitstream")
    p.add_argument("--model", required=True, help="restorer model file")
    p.add_argument("--no-backprojection", action="store_true",
                   help="skip the quantization-interval projection")
    p.add_argument("--reference", help="manifest of originals for a metrics report")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two sequences")
    p.add_argument("--reference", required=True, help="reference manifest")
    p.add_argument("--test", required=True, help="test manifest")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("rdcurve", parents=[coding],
                       help="rate-distortion sweep over several QPs")
    p.add_argument("manifest", help="sequence manifest of originals")
    p.add_argument("--qps", default="8,16,24,32,40", help="comma-separated QP list")
    p.add_argument("--model", help="optional restorer model for the restored columns")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_rdcurve)

    p = sub.add_parser("train", help="train the restorer on coded sequences")
    p.add_argument("dataset", help="text file listing one sequence manifest per line")
    p.add_argument("--qp", type=int, default=36, help="coding QP for training data (default 36)")
    p.add_argument("--iters", type=int, default=2000, help="training iterations (default 2000)")
    p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    p.add_argument("-o", "--output", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # a non-finite result is already an exit-3 error, so numpy's warning adds nothing
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
