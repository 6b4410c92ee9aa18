"""Command-line interface: artifacts, headers, exit codes, determinism."""
import hashlib
import math

import pytest

from conetrace import __version__
from conetrace.cli import main


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def read(tmp_path, name):
    return (tmp_path / name).read_text()


def test_validate_builtin(capsys, tmp_path):
    assert run(tmp_path, "validate", "--builtin", "octagon6pi") == 0
    out = capsys.readouterr().out
    assert "euler_characteristic -2" in out
    assert "genus 2" in out
    assert "ok" in out.splitlines()[-1]


def torus_file(tmp_path):
    """The flat square torus, which has no conical point."""
    surf = tmp_path / "torus.surf"
    surf.write_text(
        "surface torus\nface 0 4 0 0 1 0 1 1 0 1\nglue 0.0 0.2\nglue 0.1 0.3\n"
    )
    return surf


def test_validate_invalid_surface(capsys, tmp_path):
    assert run(tmp_path, "validate", str(torus_file(tmp_path))) == 1
    out = capsys.readouterr().out
    assert "violation NO_CONE_POINT" in out


@pytest.mark.parametrize("argv", [
    ["cylinder", "--word", "0+"],
    ["cone-approach", "--length", "3"],
    ["unique-search"],
])
def test_cone_free_surface_rejected(capsys, tmp_path, argv):
    surf = torus_file(tmp_path)
    assert run(tmp_path, argv[0], str(surf), *argv[1:]) == 1
    assert "validation failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [surf]


def test_missing_surface_file(capsys, tmp_path):
    assert run(tmp_path, "validate", str(tmp_path / "missing.surf")) == 2
    assert "usage error" in capsys.readouterr().err


def test_no_surface_given(capsys, tmp_path):
    assert run(tmp_path, "validate") == 2


def test_trace_artifact(tmp_path):
    assert run(tmp_path, "trace", "--builtin", "octagon6pi",
               "--start", "0,0", "--len", "2.5") == 0
    text = read(tmp_path, "trace.csv")
    head = text.splitlines()[0]
    assert head.startswith(f"# conetrace {__version__} argv=")
    assert "seed=0" in head
    assert "edge_cross,0.9238795325112" in text  # crossing at the apothem
    assert "# length 2.5" in text


def test_artifacts_byte_identical(tmp_path):
    argv = ["trace", "--builtin", "octagon6pi", "--start", "0,0", "--len", "2.5"]
    assert run(tmp_path, *argv) == 0
    first = (tmp_path / "trace.csv").read_bytes()
    assert run(tmp_path, *argv) == 0
    assert (tmp_path / "trace.csv").read_bytes() == first


def test_develop_artifact(tmp_path):
    assert run(tmp_path, "develop", "--builtin", "octagon6pi",
               "--start", "0,0", "--len", "2.5") == 0
    text = read(tmp_path, "develop.csv")
    assert "# chord 2.5" in text


def test_gb_audit_tolerance(tmp_path):
    pi2 = math.pi / 2
    args = ["gb-audit", "--builtin", "octagon6pi", "--interior", f"{3 * math.pi}",
            "--boundary", ",".join([str(pi2)] * 4)]
    assert run(tmp_path, *args) == 0  # no tolerance: report only
    assert run(tmp_path, *args, "--tol", "1e-6") == 1  # residual is pi


def test_shorten_artifact(tmp_path):
    assert run(tmp_path, "shorten", "--builtin", "octagon6pi", "--word", "0+") == 0
    text = read(tmp_path, "shorten.txt")
    assert f"period {2 * math.cos(math.pi / 8):.17g}" in text
    assert "unique_in_class False" in text


def test_cylinder_artifact(tmp_path):
    assert run(tmp_path, "cylinder", "--builtin", "octagon6pi", "--word", "0+") == 0
    text = read(tmp_path, "cylinder.txt")
    assert "width_left 0.3826834323650894" in text  # sin(pi/8)


@pytest.mark.parametrize("cmd", ["shorten", "cylinder"])
@pytest.mark.parametrize("word", ["7+", "-1+"])
def test_word_outside_gluings(capsys, tmp_path, cmd, word):
    # the decagon has gluings 0..4; -1 must not wrap around to the last one
    assert run(tmp_path, cmd, "--builtin", "decagon4pi4pi", f"--word={word}") == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_word_breaks_face_chain(capsys, tmp_path):
    # two unit squares; gluing 0 leads from face 0 into face 1, so "0+" does not close
    surf = tmp_path / "two_squares.surf"
    surf.write_text(
        "surface two_squares\nface 0 4 0 0 1 0 1 1 0 1\nface 1 4 0 0 1 0 1 1 0 1\n"
        "glue 0.0 1.2\nglue 0.2 1.0\nglue 0.1 1.3\nglue 0.3 1.1\n"
    )
    assert run(tmp_path, "shorten", str(surf), "--word", "0+") == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "shorten.txt").exists()


@pytest.mark.parametrize("argv", [
    ["trace", "--start", "5,5", "--len", "1"],
    ["develop", "--start", "5,5", "--len", "1"],
    ["busemann", "--ray-start", "5,5", "--horizon", "10", "--x", "0,0,0", "--x-prime", "0,0,0.1"],
    ["converge", "--start1", "5,5", "--start2", "0,0.025", "--horizon", "5"],
    ["converge", "--start1", "0,-0.025", "--start2", "5,5", "--horizon", "5"],
    ["trace", "--start", "nan,0", "--len", "5"],
    ["trace", "--start", "0,inf", "--len", "5"],
    ["develop", "--start", "0,nan", "--len", "5"],
], ids=["trace", "develop", "busemann", "converge-start1", "converge-start2", "trace-nan-x",
        "trace-inf-y", "develop-nan-y"])
def test_start_outside_face(capsys, tmp_path, argv):
    assert run(tmp_path, argv[0], "--builtin", "octagon6pi", *argv[1:]) == 2
    assert "usage error: start point is not inside its face" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["trace", "--face", "3", "--start", "0,0", "--len", "1"],
    ["busemann", "--ray-face", "2", "--ray-start", "0,0", "--horizon", "10",
     "--x", "0,0,0", "--x-prime", "0,0,0.1"],
    ["converge", "--start1", "0,-0.025", "--start2", "0,0.025", "--face2", "4", "--horizon", "5"],
    ["busemann", "--ray-start", "0,0", "--horizon", "10", "--x", "0,5,5", "--x-prime", "0,0,0.1"],
    ["busemann", "--ray-start", "0,0", "--horizon", "10", "--x", "2,0,0", "--x-prime", "0,0,0.1"],
], ids=["trace-face", "busemann-ray-face", "converge-face2", "busemann-x-outside", "busemann-x-face"])
def test_point_not_on_surface(capsys, tmp_path, argv):
    # the octagon has one face, and (5, 5) lies outside it
    assert run(tmp_path, argv[0], "--builtin", "octagon6pi", *argv[1:]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


CELLS = ["--horizon", "10", "--cell-o", "0,4,8,10", "--cell-u", "0,11,8,10"]


@pytest.mark.parametrize("argv", [
    ["transit", *CELLS, "--cell-o", "1,4,8,10"],
    ["transit", *CELLS, "--cell-o", "0,4,8,70"],
    ["transit", *CELLS, "--cell-o", "0,4,8,-1"],
    ["transit", *CELLS, "--cell-u", "0,40,8,10"],
    ["mix", *CELLS, "--samples", "0"],
    ["transit", *CELLS, "--samples", "0"],
    ["mix", *CELLS, "--dt", "0"],
    ["transit", *CELLS, "--dt", "0"],
    ["cone-approach", "--trajectories", "0", "--length", "5"],
    ["trace", "--start", "0,0", "--len", "inf"],
    ["develop", "--start", "0,0", "--len", "nan"],
    ["cone-approach", "--trajectories", "2", "--length", "nan"],
    ["cone-approach", "--trajectories", "2", "--length", "inf"],
    ["transit", *CELLS, "--horizon", "inf"],
    ["transit", *CELLS, "--dt", "inf"],
    ["converge", "--start1", "0,-0.025", "--start2", "0,0.025", "--horizon", "5", "--samples", "1"],
    ["converge", "--start1", "0,-0.025", "--start2", "0,0.025", "--horizon", "5", "--samples", "0"],
    ["unique-search", "--max-word-len", "1"],
    ["busemann", "--ray-start", "0,0", "--horizon", "10", "--x", "0,0,0", "--x-prime", "0,0,0.1",
     "--schedule", "5,2"],
    ["trace", "--start", "0,0", "--dir", "nan", "--len", "5"],
    ["mix", *CELLS, "--seed", "-1"],
], ids=["cell-face", "cell-idir-high", "cell-idir-negative", "cell-u-ix", "mix-samples",
        "transit-samples", "mix-dt", "transit-dt", "cone-approach-trajectories",
        "trace-len-inf", "develop-len-nan", "cone-approach-length-nan",
        "cone-approach-length-inf", "transit-horizon-inf", "transit-dt-inf",
        "converge-samples-1", "converge-samples-0", "unique-search-word-len", "busemann-schedule",
        "trace-dir-nan", "mix-seed-negative"])
def test_bad_experiment_args(capsys, tmp_path, argv):
    # the octagon has one face and a 16x16x64 grid of cells; the later --cell-o,
    # --cell-u or --horizon replaces the one in CELLS.  Lengths, horizons and dts
    # must be finite, and sample counts and word lengths large enough to use
    assert run(tmp_path, argv[0], "--builtin", "octagon6pi", *argv[1:]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unique_search_artifact(tmp_path):
    assert run(tmp_path, "unique-search", "--builtin", "octagon6pi", "--budget", "200") == 0
    text = read(tmp_path, "unique.txt")
    assert "unique_in_class True" in text
    assert "period 3.261972627395668" in text


def test_busemann_artifact(tmp_path):
    assert run(tmp_path, "busemann", "--builtin", "octagon6pi",
               "--ray-start", "0,0", "--horizon", "130",
               "--x", "0,0,0", "--x-prime", "0,0,0.15") == 0
    text = read(tmp_path, "busemann.csv")
    assert text.splitlines()[1] == "t,alpha"
    assert "converged True" in text


def test_converge_artifact(tmp_path):
    assert run(tmp_path, "converge", "--builtin", "octagon6pi",
               "--start1", "0,-0.025", "--start2", "0,0.025",
               "--horizon", "20", "--samples", "9") == 0
    text = read(tmp_path, "converge.csv")
    lines = text.splitlines()
    assert lines[1] == "t,distance"
    assert "# shift 0" in text
    vals = [float(l.split(",")[1]) for l in lines[2:2 + 9]]
    for v in vals:
        assert v == pytest.approx(0.05, abs=1e-9)


def test_mix_artifact(tmp_path):
    assert run(tmp_path, "mix", "--builtin", "octagon6pi",
               "--cell-o", "0,4,8,10", "--cell-u", "0,11,8,10",
               "--horizon", "50", "--dt", "2", "--samples", "20") == 0
    text = read(tmp_path, "mix.csv")
    lines = text.splitlines()
    assert lines[1] == "bin_index,t_lo,t_hi,hit"
    assert len([l for l in lines if l and not l.startswith("#")]) == 1 + 25
    assert "# first_hit" in text


def test_transit_artifact(tmp_path):
    assert run(tmp_path, "transit", "--builtin", "octagon6pi",
               "--cell-o", "0,4,8,10", "--cell-u", "0,11,8,10",
               "--horizon", "200", "--dt", "2", "--samples", "40", "--seed", "1") == 0
    text = read(tmp_path, "transit.csv")
    assert "# success True" in text


def test_cone_approach_artifact(tmp_path):
    assert run(tmp_path, "cone-approach", "--builtin", "octagon6pi",
               "--trajectories", "10", "--length", "30", "--seed", "4") == 0
    text = read(tmp_path, "cone_approach.csv")
    assert text.splitlines()[1] == "trajectory,final_min_distance"
    assert "# q50 " in text


def test_serialize_round_trip(capsys, tmp_path):
    out = tmp_path / "oct.surf"
    assert run(tmp_path, "serialize", "--builtin", "octagon6pi",
               "--out-file", str(out)) == 0
    assert run(tmp_path, "validate", str(out)) == 0


# sha256 of each artifact without its header line (which names the version):
# a refactor that changes no result must keep these bytes
GOLDEN = [
    ("trace.csv", "46199871c2afa644ce119962e9b13c28cbcaf7cd08e0cac1c3dbfdf5029c374f",
     ["trace", "--builtin", "octagon6pi", "--start", "0,0", "--len", "2.5"]),
    ("develop.csv", "5a4ac73f3e51845616f2950126e4acdeca56ac846dc6f65887060c9709073d69",
     ["develop", "--builtin", "octagon6pi", "--start", "0,0", "--len", "2.5"]),
    ("transit.csv", "96ed9e57ab257355bed6519bab605f250d5a909932f95a8405f7f24158ca2d4a",
     ["transit", "--builtin", "octagon6pi", "--cell-o", "0,4,8,10", "--cell-u", "0,11,8,10",
      "--horizon", "200", "--dt", "2", "--samples", "40", "--seed", "1"]),
    ("cone_approach.csv", "6a505f900e57f5c114ff6d27ba75440a78de3caee5292e61a72acaceb69a980b",
     ["cone-approach", "--builtin", "octagon6pi", "--trajectories", "10", "--length", "30",
      "--seed", "4"]),
    ("busemann.csv", "d220be8c4c1b9c30b1bc9228da4173644a4628514183241cdf402fe5345f71bf",
     ["busemann", "--builtin", "octagon6pi", "--ray-start", "0,0", "--horizon", "130",
      "--x", "0,0,0", "--x-prime", "0,0,0.15"]),
    ("shorten.txt", "f48235eb4a2bd9a5b186c2ffd4ce53807c900a5e3ae6921d1a5386fc36f00f99",
     ["shorten", "--builtin", "octagon6pi", "--word", "0+"]),
    # both unique-search certificates come from the anchored (through-cone) assembly
    ("unique.txt", "10eb7e08607443a8ba3695ee804aad3e72aa68305a1d6a7daba26a081051dea7",
     ["unique-search", "--builtin", "octagon6pi", "--budget", "200"]),
    ("unique.txt", "9d13bfff19af72a73ea60bb47ab5675c4186620f4146f6ea142038ffbcddc18e",
     ["unique-search", "--builtin", "decagon4pi4pi", "--budget", "200", "--seed", "5"]),
    ("cylinder.txt", "e3bb846051580c65cb5aa2d338ec88157638edf39ea62373635281895a2684ba",
     ["cylinder", "--builtin", "octagon6pi", "--word", "0+"]),
    ("converge.csv", "8635e0d85794198b7e8021392acbffac6d6a9ed891e4762fa98454274050d682",
     ["converge", "--builtin", "octagon6pi", "--start1", "0,-0.025", "--start2", "0,0.025",
      "--horizon", "20", "--samples", "9"]),
    ("mix.csv", "187b4e05c888081e67e59faae8e515ff4e817199f18605439b0e9b8cccb80198",
     ["mix", "--builtin", "octagon6pi", "--cell-o", "0,4,8,10", "--cell-u", "0,11,8,10",
      "--horizon", "50", "--dt", "2", "--samples", "20"]),
]
# the artifact name identifies a case, and the surface tells the two unique-search ones apart
GOLDEN_IDS = [f"{g[0]}-{g[2][2]}" if g[0] == "unique.txt" else g[0] for g in GOLDEN]


@pytest.mark.parametrize("name,digest,argv", GOLDEN, ids=GOLDEN_IDS)
def test_golden_artifact(tmp_path, name, digest, argv):
    assert run(tmp_path, *argv) == 0
    body = (tmp_path / name).read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == digest
