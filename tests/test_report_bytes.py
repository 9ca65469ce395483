"""Exact report bytes of the bundle, fan and appendix commands.

Each case pins the exit code and the structured report of one argv, run in
a directory holding ``FILES``.  The human report is the same bytes under a
``# quasilines <command>`` line; a usage error is the same in both formats.
"""

import shlex

import pytest

from quasilines.cli import run

FILES = {
    "p2.txt": "dim: 2\nrays:\n- 1 0\n- 0 1\n- -1 -1\ncones:\n- 0 1\n- 1 2\n- 0 2\n",
    # P^2 modulo the cyclic group of order 3: every cone has multiplicity 3.
    "quotient.txt": "dim: 2\nrays:\n- 2 -1\n- -1 2\n- -1 -1\ncones:\n- 0 1\n- 1 2\n- 0 2\n",
}

# (id, argv, exit code, structured report bytes)
CASES = [
    ("elm", "bundle elm --type 0,1,4", 0,
     "report: bundle-elm\nseed: 0\ntype: 0,1,4\nresult: 0,1,3\n"),
    ("point", "bundle point --type 0,1,4", 0,
     "report: bundle-point\nseed: 0\ntype: 0,1,4\nresult: -1,0,3\n"),
    ("self-int", "bundle self-int --type 1,2,3", 0,
     "report: bundle-self-int\nseed: 0\ntype: 1,2,3\nself-intersections: -3 0 3\n"),
    ("recover", "bundle recover --targets=-1,1 --anchor 1", 0,
     "report: bundle-recover\nseed: 0\ntargets: -1 1\nanchor: 1\nresult: 0,1\n"),
    ("plan", "bundle plan --type 2,3", 0,
     "report: bundle-plan\nseed: 0\ntype: 2,3\nsteps: 3\nalmost-line: true\n"
     "trajectory:\n- 2,3\n- 2,2\n- 1,2\n- 1,1\nkinds:\n- codim2\n- codim2\n- codim2\n"),
    ("plan-no-kinds", "bundle plan --type 1", 0,
     "report: bundle-plan\nseed: 0\ntype: 1\nsteps: 0\nalmost-line: false\n"
     "trajectory:\n- 1\nkinds: none\n"),
    ("cor17", "bundle cor17 --type 2,2 --d 2 --dimD 4", 0,
     "report: bundle-cor17\nseed: 0\ntype: 2,2\nd: 2\ndimD: 4\nn: 3\n"
     "rational-criterion: true\n"),
    ("cor17-n", "bundle cor17 --type 2 --d 1 --dimD 2 --n 2", 0,
     "report: bundle-cor17\nseed: 0\ntype: 2\nd: 1\ndimD: 2\nn: 2\n"
     "rational-criterion: true\n"),
    ("thm41", "bundle thm41 --d 1 --dimD 3 --n 3 --quasiline true", 0,
     "report: bundle-thm41\nseed: 0\nd: 1\ndimD: 3\nn: 3\nquasiline: true\n"
     "strongly-rational-criterion: true\n"),
    ("thm16", "bundle thm16 --type 2,2 --d 2 --dimD 2", 0,
     "report: bundle-thm16\nseed: 0\ntype: 2,2\nd: 2\ndimD: 2\nn: 3\n"
     "applicable: true\nreduced-type: 1,1\nreduced-d: 1\nreduced-dimD: 1\n"
     "target-dim: 1\n"),
    ("thm16-inapplicable", "bundle thm16 --type 1,2 --d 2 --dimD 5", 0,
     "report: bundle-thm16\nseed: 0\ntype: 1,2\nd: 2\ndimD: 5\nn: 3\n"
     "applicable: false\nreason: smallest exponent 1 is below d = 2\n"),
    ("cor17-no-type", "bundle cor17 --d 2 --dimD 4", 1,
     "report: error\nerror: usage\ndetail: --type is required for this operation\n"),
    ("cor17-no-d", "bundle cor17 --type 2,2 --dimD 4", 1,
     "report: error\nerror: usage\ndetail: --d is required for this operation\n"),
    ("thm16-no-type", "bundle thm16 --d 2 --dimD 4", 1,
     "report: error\nerror: usage\ndetail: --type is required for this operation\n"),
    ("thm16-no-d", "bundle thm16 --type 2,2 --dimD 4", 1,
     "report: error\nerror: usage\ndetail: --d is required for this operation\n"),
    ("cartier", "fan cartier p2.txt --values 0,0,-1", 0,
     "report: fan-cartier\nseed: 0\nvalues: 0 0 -1\ncartier: true\ncone-duals:\n"
     "- 0 0\n- 1 0\n- 0 1\n"),
    ("cartier-fails", "fan cartier quotient.txt --values 0,0,-1", 0,
     "report: fan-cartier\nseed: 0\nvalues: 0 0 -1\ncartier: false\nfailing-cone: 1\n"
     "failing-cone-rays: 1 2\nrational-solution: 2/3 1/3\n"),
    ("h0", "fan h0 p2.txt --values 0,0,-1", 0,
     "report: fan-h0\nseed: 0\nvalues: 0 0 -1\nconstraints:\n- 1 0 0\n- 0 1 0\n"
     "- -1 -1 -1\nlattice-points:\n- 0 0\n- 0 1\n- 1 0\nsection-count: 3\nh0: 3\n"),
    ("h0-no-points", "fan h0 p2.txt --values 0,0,1", 0,
     "report: fan-h0\nseed: 0\nvalues: 0 0 1\nconstraints:\n- 1 0 0\n- 0 1 0\n"
     "- -1 -1 1\nlattice-points: none\nsection-count: 0\nh0: 0\n"),
    ("appendix-2", "appendix --n 2", 0,
     "report: appendix\nseed: 0\nn: 2\nquotient-rays:\n- 3 -2\n- 0 1\n- -3 1\n"
     "quotient-cones:\n- 0 1\n- 0 2\n- 1 2\nquotient-multiplicities: 3 3 3\n"
     "quotient-smooth: false\nprojective-rays:\n- 1 -2\n- 0 1\n- -1 1\n"
     "projective-smooth: true\nquotient-map: true\ndivisor-values: 0 -1 0\n"
     "cartier-on-projective: true\nprojective-cone-duals:\n- -2 -1\n- 0 0\n- -1 -1\n"
     "cartier-on-quotient: false\nfailing-cone: 0\nfailing-cone-rays: 0 1\n"
     "rational-solution: -2/3 -1\nwitness-denominator-lcm: 3\nconstraints:\n- 3 -2 0\n"
     "- 0 1 -1\n- -3 1 0\nlattice-points:\n- 0 0\nsection-count: 1\nh0: 1\n"),
    ("appendix-3", "appendix --n 3", 0,
     "report: appendix\nseed: 0\nn: 3\nquotient-rays:\n- 4 -2 -3\n- 0 1 0\n- 0 0 1\n"
     "- -4 1 2\nquotient-cones:\n- 0 1 2\n- 0 1 3\n- 0 2 3\n- 1 2 3\n"
     "quotient-multiplicities: 4 4 4 4\nquotient-smooth: false\nprojective-rays:\n"
     "- 1 -2 -3\n- 0 1 0\n- 0 0 1\n- -1 1 2\nprojective-smooth: true\n"
     "quotient-map: true\ndivisor-values: 0 -1 0 0\ncartier-on-projective: true\n"
     "projective-cone-duals:\n- -2 -1 0\n- 1 -1 1\n- 0 0 0\n- -1 -1 0\n"
     "cartier-on-quotient: false\nfailing-cone: 0\nfailing-cone-rays: 0 1 2\n"
     "rational-solution: -1/2 -1 0\nwitness-denominator-lcm: 2\nconstraints:\n"
     "- 4 -2 -3 0\n- 0 1 0 -1\n- 0 0 1 0\n- -4 1 2 0\nlattice-points:\n- 0 0 0\n"
     "section-count: 1\nh0: 1\n"),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, content in FILES.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv,code,expected", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_report_bytes(workdir, argv, code, expected):
    args = shlex.split(argv)
    human = expected if code == 1 else f"# quasilines {args[0]}\n" + expected
    assert run(args + ["--format", "structured"]) == (code, expected)
    assert run(args + ["--format", "human"]) == (code, human)
    assert run(args) == (code, human)
