"""Golden artifacts of the gated corpus at its ``cli.BENCHMARKS`` settings.

The digests of ``suite.json`` and ``coverage.json`` were taken while calls
were still inlined; refactors that keep behaviour must keep them. Off these
settings only the solver's effort counters may drift with variable names.
"""

import hashlib

import pytest

from slc.cli import BENCHMARKS, corpus_path, run_pipeline

# subject: (exit code, tree nodes, sha256 of suite.json, sha256 of coverage.json)
GOLDEN = {
    "sll": (0, 74,
            "04f95dc3ebe367bfe53034c9fb23993ccbfa726595b8b24d5e7a5456e29dc570",
            "c22137c824b943e45a95367f61a2f3afa34f8de2026fa81c1b6e8632049ee47f"),
    "dll": (0, 13,
            "8e57ae66ee9957564e7bf40378d44b5cbc2df20ea9479decbf7ab4a7eb99fbd7",
            "2853b208ebef9b1ffaaf8479c372011ba93bb57cb54f7899acd907220aea62be"),
    "stack": (0, 8,
              "ce6c5eb0a613e7ce690ac01022414fd1474b548728402b3f578408645614f864",
              "2c49813f9cfb3149ffa2b6a39f12d232db522530afd928c49b23edc92bc49439"),
    "bst": (2, 539,
            "fbf80e773a692c8239c082d74ce66567eea4db064e8fe7a268b62e30b01e974f",
            "25956b78d23213a5cbaaf5d01232fdad2c10d847a1492e488fcd88a9803a3796"),
    "tll": (0, 41,
            "0ee4b2d376decbd9a0d2c88931c53de85ddc08b8f73c32995dde1179de9c3a55",
            "8a4466c5480737fff9ab8aaa86e64eba75cf16b150141743da3259b2a92996ee"),
    "sortedlist": (0, 88,
                   "4a7d46cf2ec472c396928dc73eb73272f034330871f91aa1240ae820e0554d6a",
                   "05dfb94f5460dde312b7d4cc460c95b6b39693ab3a082192cf13b2ca1f12be08"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_gated_artifacts_unchanged(name, tmp_path):
    bench = BENCHMARKS[name]
    result = run_pipeline(corpus_path(bench.spec), corpus_path(bench.program),
                          bench.entry, unfold_depth=bench.unfold_depth,
                          solver_depth=bench.solver_depth,
                          max_nodes=bench.max_nodes, out_dir=tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
                    for artifact in ("suite.json", "coverage.json"))
    assert (result.exit_code, len(result.tree.nodes), *digests) == GOLDEN[name]
