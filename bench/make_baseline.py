"""Regenerate ``baseline.json``: the values the output checks compare against.

    python3 bench/make_baseline.py

For every input profile and seed variant, runs each workload's set-up and
each of its calls once, validates the outputs and records their summaries:
bitstream and decoded-frame SHA-256 digests, restored-clip mean PSNR and the
final training loss.  The decoded-frame digests are pinned only after they
are checked to be those of ``encode_with_reconstruction``'s reconstructions.
Run it only on code whose outputs are known to be right; the checks then hold
every later change to these values.
"""

from __future__ import annotations

import json
import sys

import run


def closed_loop_holds(profile, variant: int, pins: dict) -> bool:
    """The pinned streams and decoded frames are what encode_with_reconstruction makes."""
    from mvcodec import codec

    import workloads

    for label, frames, config in workloads.codec_items(profile, variant):
        data, recons = codec.encode_with_reconstruction(frames, config)
        if (workloads.sha256(data), workloads.frames_sha256(recons)) != (
            pins[f"{label}.encode"], pins[f"{label}.decode"]
        ):
            return False
    return True


def main() -> int:
    if run.prepare() is None:
        return 2
    import numpy as np

    import mvcodec
    import workloads

    doc = {
        "generated_with": {"mvcodec": mvcodec.__version__, "numpy": np.__version__},
        "variants": workloads.VARIANTS,
    }
    for profile_name, profile in workloads.PROFILES.items():
        tables = doc[profile_name] = {}
        for workload, setup in workloads.SETUPS.items():
            table = tables[workload] = {}
            for variant in range(workloads.VARIANTS):
                pins = table[str(variant)] = {}
                for op in setup(profile, variant):
                    output = op.call()
                    error = op.validate(output)
                    if error is not None:
                        print(f"error: {profile_name} {workload} {variant} {op.label}: {error}",
                              file=sys.stderr)
                        return 1
                    pins[op.label] = op.summary(output)
                if workload == "codec" and not closed_loop_holds(profile, variant, pins):
                    print(f"error: {profile_name} codec {variant}: decoded frames are not "
                          "the encoder's reconstructions", file=sys.stderr)
                    return 1
                print(f"{profile_name} {workload} variant {variant}: {pins}", flush=True)
    workloads.BASELINE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
