"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py <workload> <seed> setup|pass|trace

``setup`` only imports the library; ``pass`` runs the workload; ``trace``
runs it with every efimov layer wrapped in spans.  Prints one JSON line.
The parent sets PYTHONPATH to the checkout's ``src``.
"""
import json
import resource
import sys
import time

import efimov.cli  # noqa: F401  (the console-script entry module first)
import efimov.born_oppenheimer  # noqa: F401
import efimov.channels  # noqa: F401
import efimov.hyperradial  # noqa: F401
import efimov.numerics  # noqa: F401
import efimov.stm  # noqa: F401
import efimov.two_body  # noqa: F401
import efimov.universal  # noqa: F401

T_IMPORTED = time.monotonic()


def main(workload: str, seed: int, mode: str) -> dict:
    out = {"t_imported": T_IMPORTED}
    if mode == "setup":
        return out
    import workloads

    inp = workloads.inputs(workload, seed)
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    t0 = time.perf_counter()
    out["outputs"] = workloads.run(workload, inp)
    out["solve_s"] = time.perf_counter() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = ru.ru_utime + ru.ru_stime
    out["peak_rss_mb"] = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if tracer is not None:
        out["self_s"] = dict(tracer.self_s)
        out["counts"] = dict(tracer.counts)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
