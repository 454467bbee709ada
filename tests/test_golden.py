"""Golden artifacts of the gated corpus at its ``cli.BENCHMARKS`` settings.

The digests of ``suite.json`` were taken while calls were still inlined,
those of ``tree.dot`` once calls ran in frames, and those of
``coverage.json`` once frontier pruning stopped running the integer search
(only its ``pure_solver_nodes`` counter changed then). Refactors that keep
behaviour must keep them. Off these settings only the solver's effort
counters may drift with variable names.
"""

import hashlib

import pytest

from slc.cli import BENCHMARKS, corpus_path, run_pipeline

# subject: (exit code, tree nodes, sha256 of suite.json, coverage.json, tree.dot)
GOLDEN = {
    "sll": (0, 74,
            "04f95dc3ebe367bfe53034c9fb23993ccbfa726595b8b24d5e7a5456e29dc570",
            "36dc9c5c317f10f02576dfa40f9abbd336c8330d240b8848787e42d0333c49cc",
            "f172674d22b6fc3e51107c443ef85bcffc34485908766542a2a987caca8b505a"),
    "dll": (0, 13,
            "8e57ae66ee9957564e7bf40378d44b5cbc2df20ea9479decbf7ab4a7eb99fbd7",
            "6e95aa22f96edfefddf1e93346574eb0426fe8020ed206d2875938c2e9459733",
            "7a8d10bf9b7d244d1d721a5cd341436d05f22502543afd0651176d8fde370755"),
    "stack": (0, 8,
              "ce6c5eb0a613e7ce690ac01022414fd1474b548728402b3f578408645614f864",
              "570ca7c255280376001fb46f43fa4b8fcd815f201197f56598bd7a3c18d96725",
              "2bc2959ef51077afbb2c1421eb72c93a18ce1f9bd5711b9b42477f9cfef74698"),
    "bst": (2, 539,
            "fbf80e773a692c8239c082d74ce66567eea4db064e8fe7a268b62e30b01e974f",
            "c47a706fdb3dc97b74d18d09be4fc6fcb8f156a6221ca464fddeceda2c50153d",
            "3c8979cc9106d4ff61c9935a7c84872cdfc12c69cb808caefe3fc4f0e229459b"),
    "tll": (0, 41,
            "0ee4b2d376decbd9a0d2c88931c53de85ddc08b8f73c32995dde1179de9c3a55",
            "b664dcb7a2f06925f09577b3bbe94da5d1fc7ef3f76f6e13ffe89077936b4f98",
            "30b03a2e95f6a9d7975cdfbfa6563d8cc4a259df76b9909bef33d1d8c15088f4"),
    "sortedlist": (0, 88,
                   "4a7d46cf2ec472c396928dc73eb73272f034330871f91aa1240ae820e0554d6a",
                   "86490eff4d46b9392cd31d40ebcfd3a20f2538857f8d36ccdb4ab9f60878f365",
                   "806c641a9bf31c6d2ce434f9157a5e1188c93d232ef8f58acd4c0543fb6ac53e"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_gated_artifacts_unchanged(name, tmp_path):
    bench = BENCHMARKS[name]
    result = run_pipeline(corpus_path(bench.spec), corpus_path(bench.program),
                          bench.entry, unfold_depth=bench.unfold_depth,
                          solver_depth=bench.solver_depth,
                          max_nodes=bench.max_nodes, out_dir=tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
                    for artifact in ("suite.json", "coverage.json", "tree.dot"))
    assert (result.exit_code, len(result.tree.nodes), *digests) == GOLDEN[name]
