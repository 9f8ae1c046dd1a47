"""Report bytes of ``classify`` and ``verify`` on fixed corpus modules, pinned by sha256.

The modules are criterion-1 corpus draws (``sample_recipe(2024 * 1000003 + i)``,
``build_elementary``, ``obfuscate`` with 24 steps), so a change to the Smith
kernels, the expansions or the report emission that moves a single report
byte fails here.  The digests were recorded before the full-precision
layered route for small reductions existed; reports must not depend on the
Smith engine.  The quadratic digests were recorded while every reduction over
Z_p[x]/(x^2 - nu) still ran the Python engine.  The level-3 digests at p = 7
and those of p = 5 draws 10 and 12 cover the modules of the benchmark's
``classify_p7`` and ``verify_p5`` workloads (draw 10 carries its largest
reductions); they were recorded while relation entries were still divided by
``weierstrass_divide`` and pivot inverses lifted by split products only.
The ``verify`` report of p = 5 draw 20 counts ``submodule_generators`` that
follow the pivot order of the tracked Python engine: its random-subgroup
selector draws from that engine's torsion basis, and reducing its small
tracked expansions on the layered kernel instead changes the counts.
"""

import hashlib
import json

import pytest

from finemw.cli import main
from finemw.oracle import build_elementary, obfuscate, sample_recipe
from finemw.padics import CoefficientRing
from finemw.presentations import presentation_to_json

CORPUS_SEED = 2024 * 1_000_003

# (p, corpus draw, n_max, command) -> sha256 of the report on stdout
DIGESTS = {
    (5, 0, 3, "classify"): "0d3264b9be6eb846529c5fad15d005c5b7f1d8be5007468c0fc1026f033a97aa",
    (5, 0, 3, "verify"): "99115013d40ec83906b88fd099cdc548f7ce8e4fb489ca5df8dff477ade1c934",
    (5, 1, 3, "classify"): "aa97055466212ab14e9c5f139ee8ec135b7f6a1b2d0b9261dea79027405b2a23",
    (5, 1, 3, "verify"): "6a4774e6330a7adefb3191c586655939719e6781eaf94272858f699938292e2d",
    (5, 8, 3, "classify"): "3afa678e63b2f267e7066d6f6bbb0ea8c48febc57e7f1a61af7efb7ccca06466",
    (5, 8, 3, "verify"): "594010e8d72c22ff42a88f5383aaef7f6aeeec647ccbded3dcdb31b294b1e4fa",
    (5, 10, 3, "verify"): "7b5a33b7934b91ccd097104d34698d4fa363639acf14a97041b4b93e32ccb051",
    (5, 12, 3, "verify"): "d45989e6f53c77624e9e3339161383cc97893f4ee36df240acfd81ed0f74a83d",
    (5, 20, 3, "verify"): "248920d3d80755201d77ac722759d4b69b790c62fd29de953336e02c40c1db33",
    (7, 0, 2, "classify"): "1b61718dc16ebe6b67439dde3559a532186831638214bd20d06c381b09ddc933",
    (7, 0, 2, "verify"): "0fddcf2d1b9446bd78f0e3f4611fe6bfd1338d47ea7dbcf438cd690cb7b4da0e",
    (7, 0, 3, "classify"): "8c3a06891fa63a4d6938c5a1ee2db2d3f7aade7d9bfcc93861a1d5ad832afe79",
    (7, 1, 3, "classify"): "d85c5d5e05e976927880b0354053dd3ae870c3af9691eb4bb4089c7d6e4513e9",
    (7, 8, 2, "classify"): "d595ecab70d4eb664f9a977a7baf62606e6d5655deba7d196be3d3d2fb63ffb9",
    (7, 8, 2, "verify"): "2cf782487ef5d6fc65aee7979ba133c6888ec7fd3bb58d4a23fa6b1619276c96",
}

# corpus draw -> (exit code, sha256 of the report) of ``classify --n-max 2`` over
# CoefficientRing(5, 2, 24); draw 4 exits 3 with a no-elementary-fit report
QUADRATIC_DIGESTS = {
    0: (0, "a8b211fdf6e9f54ecb98b1d758dc9e1b91335d2460b8155cdfff08b53b73e873"),
    2: (0, "23f6d1a37bdfd7e6695c42bea8229d7b0e932461f6e11825304693e1787d7945"),
    4: (3, "7cdd0a27858df468a26fa266d779d927d634d25f6bd275f42d5282f098bc273c"),
}


def corpus_module_json(p, draw, degree=1):
    recipe = sample_recipe(CORPUS_SEED + draw, p)
    M = build_elementary(recipe, CoefficientRing(p, degree, 24))
    M = obfuscate(M, seed=recipe.seed ^ 0x5EED, steps=24)
    return json.dumps(presentation_to_json(M), sort_keys=True)


def report_digest(p, draw, n_max, command, directory, capsys, degree=1):
    """(exit code, sha256 of stdout) of one command on a corpus module."""
    path = directory / f"p{p}-{draw}.json"
    path.write_text(corpus_module_json(p, draw, degree))
    code = main([command, "--file", str(path), "--n-max", str(n_max)])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("p, draw, n_max, command", sorted(DIGESTS))
def test_report_digest(p, draw, n_max, command, tmp_path, capsys):
    code, digest = report_digest(p, draw, n_max, command, tmp_path, capsys)
    assert (code, digest) == (0, DIGESTS[p, draw, n_max, command])


@pytest.mark.parametrize("draw", sorted(QUADRATIC_DIGESTS))
def test_quadratic_report_digest(draw, tmp_path, capsys):
    result = report_digest(5, draw, 2, "classify", tmp_path, capsys, degree=2)
    assert result == QUADRATIC_DIGESTS[draw]
