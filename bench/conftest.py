import run

if run.prepare() is None:
    raise RuntimeError("the benchmark tests need the mvcodec sources under src/")
