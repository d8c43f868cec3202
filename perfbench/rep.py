"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/rep.py SPEC OUT JOBS MODE

MODE is ``setup`` (time set-up only), ``train`` or ``traced``. Set-up runs
from this file's first statement to a ready-to-train state: import
anchorlab, load the spec, generate the first cell's tree and build its
initial policy. ``train`` and ``traced`` then run
``anchorlab.cli.main(["train", ...])``; ``traced`` wraps it in spans. The
last line of standard output is a JSON object with the timings.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import lab  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process since its exec. ``ru_maxrss`` would
    also count the parent's pages from before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str, out: str, jobs: int, mode: str) -> dict:
    lab.require_source()
    import anchorlab.cli
    from anchorlab.env import generate_tree
    from anchorlab.trainer import initial_policy

    spec = anchorlab.cli.load_spec(spec_path)
    initial_policy(generate_tree(spec.env))  # workloads fix the tree seed
    result = {"setup_s": time.perf_counter() - T0}
    if mode == "setup":
        return result

    argv = ["train", "--spec", spec_path, "--out", out, "--no-timestamp", "--jobs", str(jobs)]
    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        if tracer is None:
            anchorlab.cli.main(argv)
        else:
            tracer.root(anchorlab.cli.main, argv)
    except Exception as exc:  # a crash fails the unfinished cells, not the benchmark
        print(f"error: train raised {exc!r}", file=sys.stderr)
    result["train_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer, jobs)
        result["absent"] = tracer.absent
    return result


if __name__ == "__main__":
    spec_arg, out_arg, jobs_arg, mode_arg = sys.argv[1:5]
    print(json.dumps(main(spec_arg, out_arg, int(jobs_arg), mode_arg)))
