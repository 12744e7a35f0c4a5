"""Seeded malformed input through kmsdyn.cli.main, in process.

Every case must leave in under 2 s with exit code 0 and one JSON document on
stdout, or with a code from cli.EXIT_CODES or 1 and exactly one JSON error
line on stderr.  The cases: grammar-level mutations of the README maps,
constants past the double range or the bit ceiling as map coefficients and
as points, system files with each field replaced by each JSON type, and
NaN, infinite, huge and non-numeric betas, grids and points, every option
given as --opt=--, and grid steps too fine to end.  Valid maps above degree 10 are kept out:
their exact analysis time grows with degree, not with malformedness.
"""

import json
import random
import time

import pytest

from kmsdyn import mapexpr
from kmsdyn.cli import EXIT_CODES, build_parser, main
from kmsdyn.errors import KmsdynError

README_MAPS = ["z^2", "1/z^2", "z^2+1", "z^2-1", "z^3-z", "z^5-z+3/10", "(z^2+1)/(z^2-1)"]
ALPHABET = list("z i0123456789+-*/^().") + ["z^", "^-", "(z", "))", "x", "$", "1/", "0.", "*i"]
MAX_GENERATED_DEGREE = 10
CASE_SECONDS = 2.0
EXIT_CODES_BY_NAME = {cls.__name__: code for cls, code in EXIT_CODES.items()}


def _degree_bound(source):
    """The parse tree's degree bound of a source that parses, else 0."""
    try:
        return max(mapexpr._degree_bound(mapexpr.parse_expression(source).ast))
    except KmsdynError:
        return 0


def _mutate(rng, text):
    """One to three character-level edits: delete, insert, replace, duplicate or swap."""
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1) if text else 0
        op = rng.choice(["delete", "insert", "replace", "duplicate", "swap"])
        if op == "delete" and text:
            text = text[:k] + text[k + 1:]
        elif op == "insert":
            text = text[:k] + rng.choice(ALPHABET) + text[k:]
        elif op == "replace" and text:
            text = text[:k] + rng.choice(ALPHABET) + text[k + 1:]
        elif op == "duplicate" and text:
            j = rng.randrange(k, len(text) + 1)
            text = text[:j] + text[k:j] + text[j:]
        elif op == "swap" and len(text) > 1:
            k = min(k, len(text) - 2)
            text = text[:k] + text[k + 1] + text[k] + text[k + 2:]
    return text


def _map_mutations(seed=24, count=60):
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        source = _mutate(rng, rng.choice(README_MAPS))
        if _degree_bound(source) <= MAX_GENERATED_DEGREE:
            cases.append(("rat", "analyze", f"--map={source}"))
    return cases


def _huge_constants(seed=25, count=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1100, 60000)
        out.append(rng.choice([f"2^{k}", f"10^{k // 3}", f"-(3/2)^{2 * k}", f"(1+i)^{2 * k}",
                               f"i*7^{k // 2}", f"1/(1/2)^{k}", "1" + "0" * rng.randint(309, 2000)]))
    return out


# each within the double range or past it, but seconds of exact expansion away
BIT_CEILING_CONSTANTS = ["(3/5+4/5*i)^100000", "3^3000000"]


def _overflow_cases(constants):
    """Each constant as a map coefficient and as each kind of point."""
    cases = []
    for c in constants:
        cases += [
            ("rat", "analyze", f"--map=z^2+{c}"),
            ("rat", "analyze", f"--map=({c})*z^3+z"),
            ("rat", "lyubich", "--map=z^2", f"--seed={c}", "--iters=2"),
            ("rat", "witness", "--map=z^2+1", f"--point={c}", "--beta=0.5"),
            ("rat", "kms", "--map=z^2", "--beta=1.5", "--depth=3", f"--julia-points=0;{c}"),
        ]
    return cases


TENT = {"dim": 1, "maps": [{"linear": [[0.5]], "offset": [0]}, {"linear": [[-0.5]], "offset": [1]}]}
JSON_VALUES = [None, True, False, 0, -1, 2, 0.5, float("nan"), float("inf"), -float("inf"), 1e308, "0.5",
               "", [], {}, [0.5], [[0.5]], [[[0.5]]], {"linear": [[0.5]]}]


SYSTEM_FIELDS = [("dim",), ("maps",), ("maps", 0), ("maps", 0, "linear"), ("maps", 0, "offset"),
                 ("maps", 1, "linear", 0), ("maps", 1, "linear", 0, 0), ("maps", 1, "offset", 0), ("name",)]


def _replaced(path, value):
    """A copy of the tent system file with the field at path replaced by value."""
    system = json.loads(json.dumps(TENT))
    node = system
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return system


BAD_NUMBERS = ["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "abc", "", "0x1p3", "1,5", "-"]


def _number_cases():
    cases = []
    for v in BAD_NUMBERS:
        cases += [
            ("rat", "kms", "--map=z^2+1", f"--beta={v}", "--depth=4"),
            ("rat", "witness", "--map=z^2+1", "--point=0.3", f"--beta={v}"),
            ("ifs", "kms", "--preset=tent", f"--beta={v}", "--depth=4"),
            ("ifs", "classify", "--preset=tent", f"--beta={v}"),
            ("rat", "phase", "--map=z^2", f"--beta-grid={v}:1:0.5"),
            ("rat", "phase", "--map=z^2", f"--beta-grid=0:{v}:0.5"),
            ("rat", "phase", "--map=z^2", f"--beta-grid=0:1:{v}"),
            ("rat", "witness", "--map=z^2+1", f"--point={v}", "--beta=0.5"),
            ("rat", "lyubich", "--map=z^2", f"--seed={v}", "--iters=2"),
            ("ifs", "kms", "--preset=tent", "--beta=1.5", "--depth=4", f"--branch-point={v}"),
            ("ifs", "kms", "--preset=sierpinski", "--beta=1.5", "--depth=4", f"--branch-point=0.5,{v}"),
        ]
    return cases


# each command with valid arguments, fast to run
VALID = {
    ("rat", "analyze"): ["--map=z^2"],
    ("rat", "kms"): ["--map=z^2+1", "--beta=1.5", "--depth=3"],
    ("rat", "lyubich"): ["--map=z^2", "--seed=1", "--iters=2"],
    ("rat", "phase"): ["--map=z^2", "--beta-grid=0:1:0.5"],
    ("rat", "witness"): ["--map=z^2+1", "--point=0.3", "--beta=0.5", "--depth=2"],
    ("ifs", "analyze"): ["--preset=tent", "--depth=4"],
    ("ifs", "kms"): ["--preset=tent", "--beta=1.5", "--depth=4"],
    ("ifs", "hutchinson"): ["--preset=tent", "--iters=4"],
    ("ifs", "classify"): ["--preset=tent", "--beta=1.5"],
}


def _dash_dash_cases():
    """Every option of every command given as --opt=--, the command's other arguments valid.

    Python 3.11's argparse hands the value on as an empty list, newer ones as
    the string "--"; a flag refuses the explicit value itself.
    """
    cases = []
    for (group, command), parser in build_parser().commands.items():
        for action in parser.arguments:
            option = max(action.option_strings, key=len, default=None)
            if option is None or option == "--help":
                continue
            kept = [a for a in VALID[group, command] if not a.startswith(option + "=")]
            cases.append((group, command, *kept, f"{option}=--"))
    return cases


def _run(capsys, argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < CASE_SECONDS, f"{argv} took {elapsed:.2f} s"
    if code == 0:
        assert captured.err == ""
        json.loads(captured.out)
        return code, None
    assert code == 1 or code in EXIT_CODES.values(), (argv, code)
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, (argv, captured.err)
    return code, json.loads(lines[0])["error"]


@pytest.mark.parametrize("argv", _map_mutations(), ids=lambda argv: argv[-1])
def test_a_mutated_map_leaves_through_the_error_table(capsys, argv):
    _run(capsys, argv)


@pytest.mark.parametrize("argv", _overflow_cases(_huge_constants()), ids=lambda argv: argv[1])
def test_a_constant_past_the_double_range_is_refused_at_parse_time(capsys, argv):
    code, error = _run(capsys, argv)
    assert code == EXIT_CODES_BY_NAME["ConstantOutOfRange"] == 15
    assert error["kind"] == "ConstantOutOfRange"


@pytest.mark.parametrize("argv", _overflow_cases(BIT_CEILING_CONSTANTS), ids=lambda argv: argv[1])
def test_a_constant_past_the_bit_ceiling_is_refused_before_expansion(capsys, argv):
    code, error = _run(capsys, argv)
    assert code == EXIT_CODES_BY_NAME["ConstantOutOfRange"] == 15
    assert error["kind"] == "ConstantOutOfRange" and "bits" in error["detail"]


@pytest.mark.parametrize("path", SYSTEM_FIELDS, ids=lambda path: "/".join(map(str, path)))
def test_each_field_of_a_system_file_as_each_json_type(tmp_path, capsys, path):
    for k, value in enumerate(JSON_VALUES):
        system = tmp_path / f"system-{k}.json"
        system.write_text(json.dumps(_replaced(path, value)))
        _run(capsys, ("ifs", "analyze", f"--system={system}", "--depth=6"))


@pytest.mark.parametrize("argv", _number_cases(), ids=lambda argv: " ".join(argv[1:]))
def test_a_bad_number_leaves_through_one_json_error_line(capsys, argv):
    _run(capsys, argv)


@pytest.mark.parametrize("argv", _dash_dash_cases(), ids=lambda argv: " ".join(argv[:2] + argv[-1:]))
def test_an_option_given_as_dash_dash_is_refused(capsys, argv):
    code, error = _run(capsys, argv)
    assert code == 1 and error["kind"] == "ValueError"


@pytest.mark.parametrize("grid, code", [
    ("0:1:1e-300", 1),
    ("0:1:1e-12", EXIT_CODES_BY_NAME["AtomBudgetExceeded"]),
    ("1:1.0000000000000002:1.1102230246251565e-16", 1),
    ("0:0:1e-300", EXIT_CODES_BY_NAME["AtomBudgetExceeded"]),
    ("0:1e-300:1e-300", EXIT_CODES_BY_NAME["AtomBudgetExceeded"]),
    ("0:0:1e-22", EXIT_CODES_BY_NAME["AtomBudgetExceeded"]),
])
def test_a_grid_that_would_not_end_is_refused(capsys, grid, code):
    # 1e-300 is below the float spacing at 1, so beta would stop advancing;
    # 1e-12 advances, but 10^12 + 1 points pass the atom budget; 2^-53 moves
    # hi = 1 + 2^-52 (a rounding tie to even) but not beta = 1; the loop runs
    # to hi + 1e-15, so 0:0:1e-300 and 0:0:1e-22 would make 10^285 and 10^7
    # points though they move hi
    code_seen, error = _run(capsys, ("rat", "phase", "--map=z^2", f"--beta-grid={grid}"))
    assert code_seen == code
    if code == EXIT_CODES_BY_NAME["AtomBudgetExceeded"]:
        count = error["detail"].split(" could create ")[1].split()[0]
        assert count.isdigit() or float(count) >= 2**53, error
