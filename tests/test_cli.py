import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flipcayley
from flipcayley import (
    AlgebraElement,
    cayley_double,
    find_zero_divisor,
    named,
    ordinary_ring,
    verify,
)
from flipcayley import structure_analysis as sa
from flipcayley.cayley_dickson import MAX_DOUBLINGS
from flipcayley.cli import format_element, main, parse_element
from conftest import assert_json_is_algebra, exact_scalars


# -------------------------------------------------------------------- literals
def test_parse_element_basic():
    from fractions import Fraction

    e = parse_element("1/2*e0 - e3", 4)
    assert e.coords == (Fraction(1, 2), 0, 0, -1)


def test_parse_element_bracketed_and_bare():
    assert parse_element("[e3+e10]", 16).coords[3] == 1
    assert parse_element("[e3+e10]", 16).coords[10] == 1
    assert parse_element("2e3", 4).coords[3] == 2
    assert parse_element("0", 4).is_zero()
    assert parse_element("-e1 + 3", 2).coords == (3, -1)


def test_parse_element_errors():
    from flipcayley.cli import CliError

    with pytest.raises(CliError):
        parse_element("e9", 4)
    with pytest.raises(CliError):
        parse_element("x + y", 4)
    with pytest.raises(CliError):
        parse_element("", 4)
    # ASCII digits only, and a * only after a coefficient
    for text in ("e\u0663", "\u0663", "*e1"):
        with pytest.raises(CliError):
            parse_element(text, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.lists(exact_scalars, min_size=n, max_size=n)))
def test_format_element_round_trips(coords):
    x = AlgebraElement(coords)
    assert parse_element(format_element(x), len(coords)) == x


def test_format_element_round_trip(algebras):
    H = algebras["H"]
    x = H.basis()[1].scaled(-1) + H.basis()[3].scaled(2)
    text = format_element(x)
    assert text == "-e1 + 2*e3"
    assert parse_element(text, 4) == x
    assert format_element(H.zero()) == "0"


# ------------------------------------------------------------------- commands
def test_table_octonions(capsys):
    assert main(["table", "--algebra=O"]) == 0
    out = capsys.readouterr().out.splitlines()
    # row e1, column e2 holds e1*e2 = e3
    header = out[0].split()
    row = next(line for line in out if line.startswith("e1 ")).split()
    assert row[header.index("e2")] == "e3"


def test_table_json_round_trips(capsys):
    assert main(["table", "--algebra=H", "--json"]) == 0
    assert_json_is_algebra(json.loads(capsys.readouterr().out), named("H"))


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["table", "--algebra=O", "--json"],
            "f1c4e28699ba9ec1fa9e0a7fd263f9678dd74fd52472099a5699b247caeabde8",
        ),
        (
            ["table", "--mus=1/2,3", "--json"],
            "bf0a593d865fc1b79b477621303e8119444c5338da6d883025c213550106f24c",
        ),
    ],
)
def test_table_json_export_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_mul_command(capsys):
    assert main(["mul", "--algebra=H", "e1", "e2"]) == 0
    assert capsys.readouterr().out.strip() == "e3"


def test_mul_with_tower_flag(capsys):
    assert main(["mul", "--mus=-1,-1", "e1", "e2"]) == 0
    assert capsys.readouterr().out.strip() == "e3"


def test_mul_sedenion_zero_divisor(capsys, algebras):
    S = algebras["S"]
    x, y = find_zero_divisor(S)
    code = main(["mul", "--algebra=S", format_element(x), format_element(y)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_assoc_command(capsys):
    assert main(["assoc", "--algebra=O", "e1", "e2", "e4"]) == 0
    assert capsys.readouterr().out.strip() == "2*e7"
    assert main(["assoc", "--algebra=H", "e1", "e2", "e3"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_algebra_summary(capsys):
    assert main(["algebra", "--algebra=H"]) == 0
    out = capsys.readouterr().out
    assert "dim: 4" in out
    assert "commutative: False" in out
    assert "associative: True" in out


def test_algebra_zero_divisors(capsys):
    assert main(["algebra", "--algebra=C'", "--zero-divisors"]) == 0
    out = capsys.readouterr().out
    assert "(e0 + e1) * (e0 - e1) = 0" in out


def test_check_family_exit_codes(capsys):
    assert main(["check", "--algebra=H", "--family=F", "--bound=2"]) == 0
    assert main(["check", "--algebra=H", "--family=N", "--bound=2"]) == 1
    out = capsys.readouterr().out
    assert "N3" in out


def test_check_takes_no_json_flag(capsys):
    # check prints only its text summary, so it has no --json to accept
    assert main(["check", "--algebra=C", "--family=O", "--bound=1", "--json"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_algebra_takes_no_json_flag(capsys):
    # table --json is the one JSON export of an algebra
    assert main(["algebra", "--algebra=S", "--json", "--zero-divisors"]) == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_involution_commands(capsys):
    assert main(["involution", "--algebra=C", "--which=alpha", "[0,1]*X"]) == 0
    assert capsys.readouterr().out.strip() == "[0,-1]*X"
    assert main(["involution", "--algebra=C", "--which=beta", "[0,1]*X"]) == 0
    assert capsys.readouterr().out.strip() == "[0,1]*X"


def test_involution_validate(capsys):
    ok = main(["involution", "--algebra=H", "--validate", "[0,0,0,0] - [1,0,0,0]*X"])
    assert ok == 0
    bad = main(["involution", "--algebra=H", "--validate", "[1,0,0,0] + [1,0,0,0]*X"])
    assert bad == 1


def test_quotient_commands(capsys):
    assert main(["quotient", "--algebra=H", "--mu=-1", "mul", "e1", "e4"]) == 0
    assert capsys.readouterr().out.strip() == "e5"
    assert main(["quotient", "--algebra=H", "--mu=-1", "star", "e4"]) == 0
    assert capsys.readouterr().out.strip() == "-e4"


def test_quotient_table_matches_double(capsys):
    assert main(["quotient", "--algebra=C", "--mu=1", "table", "--json"]) == 0
    assert_json_is_algebra(json.loads(capsys.readouterr().out), cayley_double(named("C"), 1))


def test_analyze_command(capsys):
    assert main(["analyze", "--algebra=C", "--set=center", "--bound=4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["degree", "dim", "basis"]
    assert out[1].split() == ["0", "1", "e0"]
    assert out[2].split()[:2] == ["1", "0"]


def test_analyze_cross_check_json(capsys):
    code = main(
        ["analyze", "--algebra=C", "--set=nucleus", "--bound=3", "--cross-check", "--json"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cross_check"]["ok"] is True
    assert data["degrees"][0]["dim"] == 2


def test_analyze_runs_to_the_library_limit(capsys):
    assert main(["analyze", "--algebra=C", "--set=center", "--bound=8"]) == 0
    captured = capsys.readouterr()
    degrees = [line.split()[0] for line in captured.out.splitlines()[1:]]
    assert degrees == [str(d) for d in range(9)]
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--algebra=C", "--set=center", "--bound=9"], "bound"),
        (["analyze", "--algebra=C", "--set=z_star", "--bound=9"], "bound"),
        (["check", "--algebra=H", "--family=O", "--bound=9"], "degree_bound"),
    ],
)
def test_a_bound_past_the_library_limit_exits_2(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message} must be between 0 and 8\n"


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite=thm1", "--algebra=H", "--mu=-1"]) == 0
    out = capsys.readouterr().out
    assert "suite thm1" in out
    assert "result: PASS" in out


def test_verify_takes_no_suite_all(capsys):
    # plain verify and verify --all run every suite
    assert main(["verify", "--suite=all"]) == 2
    assert "invalid choice: 'all'" in capsys.readouterr().err


def test_each_suite_reads_the_options_it_declares():
    assert verify.SUITE_OPTIONS == {
        "thm1": ("algebra", "mu"),
        "thm2": ("algebra",),
        "props": ("algebra", "mu"),
        "centers": ("algebra", "bound"),
        "corollary": ("bound",),
        "axioms": ("bound",),
    }
    # the benchmark passes every suite the same keywords; each reads its own
    assert verify.run_suite("thm1", algebra="C", bound=6).render() == [
        "suite thm1 [quotient-matches-cayley-double]",
        "  C, mu=-1: 4x4 products and 4 stars agree",
        "  C, mu=1: 4x4 products and 4 stars agree",
        "  result: PASS",
    ]
    with pytest.raises(TypeError):
        verify.run_suite("thm1", algebr="C")


def test_verify_axioms_suite(capsys):
    assert main(["verify", "--suite=axioms"]) == 0
    out = capsys.readouterr().out
    assert "fails as predicted" in out


def test_verify_all_is_deterministic(capsys):
    assert main(["verify", "--suite=thm2"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite=thm2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("result: PASS") == 1


def test_verify_all_report_is_pinned(capsys):
    assert main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b74c94674264e92003f7a8e7a53e062bf5997b6527f631f92959a5055ac658dc"


def test_verify_all_report_ignores_the_environment(capsys, monkeypatch):
    # each suite's default is its only degree bound; the CLI once read a cap
    # from this variable, and a cap of 2 changed the report
    monkeypatch.setenv("FLIPCAYLEY_MAX_DEGREE", "2")
    assert main(["verify", "--all"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b74c94674264e92003f7a8e7a53e062bf5997b6527f631f92959a5055ac658dc"


_BRUTE, _COMMUTATIVE = sa.degreewise_set_bruteforce, sa.b_commutative_criterion
# one broken dependency per suite, and the witness its report must end with
_BROKEN_SUITES = {
    "thm1": (
        verify,
        "cayley_double",
        lambda A, mu: cayley_double(A, -mu),
        "R, mu=-1: products differ on ((0, 1), (0, 1))",
    ),
    "thm2": (verify, "cayley_t_star", lambda A, u: u, "C: psi not star-compatible"),
    "props": (
        sa,
        "b_commutative_criterion",
        lambda A: not _COMMUTATIVE(A),
        "R, mu=-1: criterion says commutative=False but the quotient has commutative=True",
    ),
    "centers": (
        sa,
        "degreewise_set_bruteforce",
        lambda A, kind, bound: _BRUTE(A, kind, bound - 1),
        "R, commuter: criteria dims {0: 1, 1: 1, 2: 1, 3: 1, 4: 1} vs "
        "brute-force dims {0: 1, 1: 1, 2: 1, 3: 1}",
    ),
    "corollary": (
        sa,
        "z_star_of_b",
        lambda A, bound: sa.degreewise_set(A, "center", bound),
        "tower n=0, degree 1: dims (center, star-center, nucleus) = (1, 1, 1), "
        "expected (1, 0, 1)",
    ),
    "axioms": (
        verify,
        "star_skew_ring",
        ordinary_ring,
        "F-family fails on the quaternion ring: family F, bound 6: 928 identities "
        "checked, 18 failed; first: [F3b] n=1 r=(0, 1, 0, 0) s=(0, 0, 1, 0): "
        "[0,0,0,1]*X vs [0,0,0,-1]*X",
    ),
}


@pytest.mark.parametrize("suite", sorted(_BROKEN_SUITES))
def test_verify_suite_fails_on_a_broken_dependency(capsys, monkeypatch, suite):
    module, name, broken, witness = _BROKEN_SUITES[suite]
    monkeypatch.setattr(module, name, broken)
    assert main(["verify", f"--suite={suite}"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"  result: FAIL - {witness}"


def test_failing_suite_keeps_the_lines_before_its_counterexample(capsys, monkeypatch):
    # mu is negated only when doubling an algebra of dim 4 or more, so the
    # doubles of R, C and C' still agree and H is the first counterexample
    monkeypatch.setattr(
        verify, "cayley_double", lambda A, mu: cayley_double(A, -mu if A.dim >= 4 else mu)
    )
    assert main(["verify", "--suite=thm1"]) == 1
    assert capsys.readouterr().out == (
        "suite thm1 [quotient-matches-cayley-double]\n"
        "  R, mu=-1: 2x2 products and 2 stars agree\n"
        "  R, mu=1: 2x2 products and 2 stars agree\n"
        "  C, mu=-1: 4x4 products and 4 stars agree\n"
        "  C, mu=1: 4x4 products and 4 stars agree\n"
        "  C', mu=-1: 4x4 products and 4 stars agree\n"
        "  C', mu=1: 4x4 products and 4 stars agree\n"
        "  result: FAIL - H, mu=-1: products differ on "
        "((0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0))\n"
    )


def test_disagreeing_one_sided_nuclei_fail_the_centers_suite(capsys, monkeypatch):
    monkeypatch.setitem(
        sa._BRUTE_KINDS, "left_right_nucleus", (("nucleus_right",), ("commuter",))
    )
    result = verify.run_suite("centers", algebra="C")
    assert result.failure.startswith(
        "C, left_right_nucleus: left and right nucleus disagree at degree "
    )
    assert main(["verify", "--suite=centers", "--algebra=C"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"  result: FAIL - {result.failure}"


def test_a_quotient_that_is_no_star_algebra_fails_the_props_suite(monkeypatch):
    monkeypatch.setattr(verify.QuotientRing, "star", lambda self, u: u.scaled(2))
    result = verify.run_suite("props")
    assert result.lines == []
    assert result.failure == (
        "R, mu=-1: the quotient is not a star-algebra: involution must square to the identity"
    )


def test_usage_errors_exit_2(capsys):
    assert main(["mul", "--algebra=H"]) == 2
    assert main(["mul", "--algebra=Q", "e0", "e0"]) == 2
    assert main(["mul", "--algebra=H", "e9", "e0"]) == 2
    assert main(["mul", "e0", "e0"]) == 2  # no algebra given
    assert main(["quotient", "--algebra=H", "--mu=0", "mul", "e0", "e0"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_too_many_doublings_exit_2(capsys):
    mus = ",".join(["1"] * (MAX_DOUBLINGS + 1))
    assert main(["table", f"--mus={mus}"]) == 2
    assert capsys.readouterr().err == (
        f"error: bad --mus value: at most {MAX_DOUBLINGS} doublings are allowed, "
        f"got {MAX_DOUBLINGS + 1}\n"
    )


_BAD_INPUTS = [
    ["mul", "--algebra=H", "1/0*e1", "e2"],
    ["involution", "--algebra=C", "[1/0,1]"],
    ["analyze", "--algebra=C", "--set=center", "--bound=-1"],
    ["analyze", "--algebra=C", "--set=center", "--bound=12"],
    ["verify", "--suite=thm1", "--mu=0"],
    ["mul", "--mus=-1,,-1", "e1", "e2"],
    ["involution", "--algebra=H", ""],
    ["involution", "--algebra=H", "--validate", ""],
    ["analyze", "--algebra=C", "--set=z_star", "--cross-check"],
    ["quotient", "--algebra=C", "--mu=-1", "table", "e1"],
    ["involution", "--algebra=C", "[0,1]*X^1_0"],
    ["mul", "--algebra=H", "*e1", "e2"],
    ["involution", "--algebra=C", "--validate", "[0,1]*X", "[1,0]"],
    # an option that no suite run reads, and flags that --validate does not read
    ["verify", "--suite=thm2", "--algebra=C", "--mu=2"],
    ["verify", "--suite=axioms", "--mu=5"],
    ["verify", "--suite=corollary", "--algebra=H"],
    ["involution", "--algebra=H", "--validate", "[0,0,0,0] - [1,0,0,0]*X", "--json"],
    ["involution", "--algebra=H", "--validate", "[0,0,0,0] - [1,0,0,0]*X", "--which=beta"],
    ["verify", "--all", "--suite=thm1"],
]


# the ids of the cases are those they had when the table also set a degree cap
# (20 for argv3, none for the rest), so that each case keeps its name
@pytest.mark.parametrize(
    "argv",
    _BAD_INPUTS,
    ids=[f"argv{i}-{20 if i == 3 else None}" for i in range(len(_BAD_INPUTS))],
)
def test_bad_input_exits_2_with_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_without_a_traceback():
    # the dim-64 table as JSON is about 3.5 MB, more than a pipe buffer
    # holds, so the script is still writing when the reader closes its end
    src = os.path.dirname(os.path.dirname(flipcayley.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["table", "--mus=-1,-1,-1,-1,-1,-1", "--json"]
    with subprocess.Popen(
        [sys.executable, "-m", "flipcayley.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as run:
        assert run.stdout.readline() == b"{\n"
        run.stdout.close()
        err = run.stderr.read()
    assert b"Traceback" not in err
    assert run.returncode != 1


_H_TABLE = """\
*   e0  e1   e2   e3
e0  e0  e1   e2   e3
e1  e1  -e0  e3   -e2
e2  e2  -e3  -e0  e1
e3  e3  e2   -e1  -e0
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["table", "--algebra=H"], _H_TABLE),
        (["quotient", "--algebra=C", "--mu=-1", "table"], _H_TABLE),
        (
            ["analyze", "--algebra=H", "--set=center", "--bound=2", "--cross-check"],
            "degree  dim  basis\n"
            "0       1    e0\n"
            "1       0    -\n"
            "2       1    e0\n"
            "cross-check vs brute force (bound 2): OK\n",
        ),
        # the star-fixed center is 0 at odd degrees, where R's center is not
        (
            ["analyze", "--algebra=R", "--set=z_star", "--bound=3"],
            "degree  dim  basis\n"
            "0       1    e0\n"
            "1       0    -\n"
            "2       1    e0\n"
            "3       0    -\n",
        ),
        # over a commutative algebra x(bc) - x(cb) vanishes: all of C at every degree
        (
            ["analyze", "--algebra=C", "--set=nucleus", "--bound=3"],
            "degree  dim  basis\n"
            "0       2    e0; e1\n"
            "1       2    e0; e1\n"
            "2       2    e0; e1\n"
            "3       2    e0; e1\n",
        ),
        # with a mu, props checks that one quotient only, and says so
        (
            ["verify", "--suite=props", "--algebra=O", "--mu=2"],
            "suite props [inheritance-criteria]\n"
            "  O: (comm, assoc, alt, flex) = FFFT, matches the mu=2 quotient\n"
            "  result: PASS\n",
        ),
    ],
)
def test_text_output_is_pinned(argv, expected, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (
            ["check", "--algebra=H", "--family=N", "--bound=2"],
            1,
            "family N, bound 2: 304 identities checked, 108 failed; first: [N3] "
            "(bX^0, cX^0, X) != 0 for b=(0, 1, 0, 0) c=(0, 0, 1, 0): [0,0,0,2]*X\n",
        ),
        (
            ["check", "--algebra=H", "--family=O", "--bound=2"],
            1,
            "family O, bound 2: 1744 identities checked, 456 failed; first: [O3] "
            "(aX^0, bX^0, cX^1) != 0 for a=(0, 1, 0, 0) b=(0, 0, 1, 0) c=(1, 0, 0, 0): "
            "[0,0,0,2]*X\n",
        ),
        (
            ["check", "--algebra=C", "--family=O", "--bound=2"],
            0,
            "family O, bound 2: 224 identities checked, all hold\n",
        ),
    ],
)
def test_check_output_and_exit_code_are_pinned(argv, code, expected, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == expected


# ------------------------------------------------------------------- fuzzing
_JUNK = ("", " ", ",", "[", "]", "1/0", "e9", "*X", "[1/0,1]")


def _signed_sum(terms):
    pieces = st.sampled_from(terms * 6 + _JUNK)
    return st.lists(st.tuples(st.sampled_from(("-", " + ", " - ")), pieces), max_size=3).map(
        lambda drawn: "".join(sign + piece for sign, piece in drawn)
    )


_element = _signed_sum(("e0", "e1", "e3", "1/2*e2", "3", "0"))
_poly = _signed_sum(("[1,0]", "[0,1]*X", "[1,0,0,0]", "[0,1,0,0]*X", "[0,0,0,1/2]*X^2", "0"))
_scalar = st.sampled_from(("-1", "1", "1/2", "0", "1/0", "", ","))
_algebra = st.one_of(
    st.sampled_from(("R", "C", "H")).map("--algebra={}".format),
    st.lists(_scalar, max_size=2).map(lambda parts: "--mus=" + ",".join(parts)),
)
_bound = st.integers(-1, 3).map("--bound={}".format)
_json = st.just("--json")
# command -> (required flags, optional flags, positional arguments)
_COMMANDS = {
    "algebra": ((_algebra,), (st.just("--zero-divisors"),), ()),
    "mul": ((_algebra,), (_json,), (_element,) * 2),
    "assoc": ((_algebra,), (_json,), (_element,) * 3),
    "table": ((_algebra,), (_json,), ()),
    "check": (
        (_algebra, st.sampled_from("ONF").map("--family={}".format)),
        (_bound,),
        (),
    ),
    "involution": (
        (_algebra,),
        (_json, st.sampled_from(("alpha", "beta")).map("--which={}".format),
         _poly.map("--validate={}".format)),
        (_poly,),
    ),
    "quotient": (
        (_algebra, _scalar.map("--mu={}".format)),
        (_json,),
        (st.sampled_from(("mul", "star", "table")), _element, _element),
    ),
    "analyze": (
        (
            _algebra,
            st.sampled_from(
                ("commuter", "nucleus", "middle_nucleus", "left_right_nucleus", "center", "z_star")
            ).map("--set={}".format),
        ),
        (_bound, _json, st.just("--cross-check")),
        (),
    ),
    # one suite, on one algebra where it reads one: every suite on every
    # algebra takes seconds
    "verify": (
        (
            st.sampled_from(sorted(verify.SUITE_OPTIONS)).flatmap(
                lambda suite: st.sampled_from(("R", "C", "H")).map(
                    lambda name: ("--suite=" + suite, "--algebra=" + name)
                )
                if "algebra" in verify.SUITE_OPTIONS[suite]
                else st.just(("--suite=" + suite,))
            ),
        ),
        (_scalar.map("--mu={}".format),),
        (),
    ),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, positionals = _COMMANDS[command]
    argv = [command]
    for flag in required:  # a flag strategy draws one argument or a tuple of them
        drawn = draw(flag)
        argv += drawn if isinstance(drawn, tuple) else [drawn]
    argv += draw(st.lists(st.one_of(optional), max_size=3))
    count = len(positionals) - draw(st.sampled_from((0, 0, 0, 1)))
    literals = [draw(p) for p in positionals[: max(count, 0)]]
    # after "--" a literal such as "-e1" is read as a positional, not as a flag
    return argv + ["--"] + literals if literals else argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_main_keeps_the_exit_code_contract(argv):
    """No exception escapes ``main``, and exit code 1 means a check really failed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        command = argv[0]
        validating = command == "involution" and any(a.startswith("--validate=") for a in argv)
        cross_checking = command == "analyze" and "--cross-check" in argv
        assert command in ("check", "verify") or validating or cross_checking, argv
