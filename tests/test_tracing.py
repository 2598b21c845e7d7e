"""perfbench's tracer patches orthokit's entry points and reads its
private caches by name; this keeps those names in step with the package."""

import importlib.util
import pathlib

from orthokit import check, geom

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_perfbench_tracer_fits_the_package():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()  # looks up every traced name
    tracer.install()
    try:
        # a transposition is no Singer multiplier map, so the check of a
        # family of three reads each space's full triple index
        g = geom.projective(2, 2)
        swaps = [check.from_map(g, check.perm_from_cycles(7, [cycle]))
                 for cycle in ([0, 1], [2, 3])]
        assert not check.are_mutually_orthogoval([check.standard(g), *swaps])
        geom.projective(2, 2).lines()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["check.triples_calls"] > 0
    assert metrics["geom.line_rows"] > 0
