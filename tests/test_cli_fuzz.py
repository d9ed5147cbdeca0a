"""The exit-code contract under odd input: whatever the arguments, JSON or
curve table, the CLI exits 0, 2, 3, 4 or 5, and never with a traceback."""

import json

import pytest
from conftest import run_cli, run_main
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

CODES = {0, 2, 3, 4, 5}

# numbers as typed: huge, tiny, non-finite, negative in exponent form, not numbers
NUMBERS = ["0", "1", "-1", "0.5", "-0.5", "2", "-0.0", "1e308", "-1e308", "1.7e308", "9.5e307",
           "1.7976931348623157e308", "5e-324", "-5e-324", "1e-05", "-7.7e-05", "-1E+3",
           "1e400", "-1e400", "nan", "-nan", "inf", "-inf", "9" * 400, "-" + "9" * 400, "0x10",
           "1_000", "", "abc"]
numbers = st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr), st.floats(-1.5, 1.5).map(repr),
                    st.integers(-10**30, 10**30).map(str))
# --n and --levels that run stay within a few thousand, so that each call is fast;
# those past 2**53 are refused before they run
counts = st.one_of(st.integers(-2, 3000).map(str), st.integers(2**53 + 1, 10**400).map(str),
                   st.sampled_from(["1.5", "nan", "1e3", "", "x"]))

# JSON values as typed: numbers huge, tiny and non-finite, then other types,
# deeply nested ones among them
JSON_NUMBERS = ["0", "1", "-1", "2", "0.5", "-0.0", "1e308", "-1e308", "1.7e308", "1e400",
                "-1e400", "9" * 400, "-" + "9" * 400, "9" * 5000, "1" + "0" * 308, "5e-324",
                "NaN", "Infinity", "-Infinity"]
JSON_OTHERS = ["true", "null", '"1"', "[1]", "{}", "[" * 3000 + "]" * 3000,
               '{"a":' * 3000 + "0" + "}" * 3000]
LINE_BREAKS = ["\n", "\r\n", "\r"]
# half of the documents have no defect but their numbers
DEFECTS = ["none"] * 6 + ["type", "kind", "drop", "duplicate", "extra", "bytes"]


@st.composite
def documents(draw):
    """The bytes of a PTFN document of odd numbers with at most one other defect, or any bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    number = st.one_of(st.sampled_from(JSON_NUMBERS),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
    values = [draw(number) for _ in range(3)]
    if draw(st.booleans()):  # a <= b <= c, as a valid number has them
        values.sort(key=float)
    fields = [[key, value] for key, value in zip(("a", "b", "c"), values)]
    fields.append(["kind", draw(st.sampled_from(['"dependent"', '"independent"']))])
    i = draw(st.integers(0, 3))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "type":
        fields[i][1] = draw(st.sampled_from(JSON_OTHERS))
    elif defect == "kind":
        fields[3][1] = draw(st.sampled_from(['"both"', "1", "null", '["dependent"]']))
    elif defect == "drop":
        del fields[i]
    elif defect == "duplicate":
        fields.append(fields[i])
    elif defect == "extra":
        key, value = draw(st.text(max_size=4)), draw(st.sampled_from(JSON_NUMBERS + JSON_OTHERS))
        fields.append([key, value])
    sep = draw(st.sampled_from([",", ", "] + [", " + end for end in LINE_BREAKS]))
    data = ("{" + sep.join(f"{json.dumps(key)}: {value}" for key, value in fields) + "}").encode()
    if defect == "bytes":
        data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data + draw(
            st.sampled_from([b"\xff", b"\xc3", "é".encode(), b"\xed\xa0\x80"]))
    return data


@st.composite
def tables(draw):
    """The bytes of a curve table: rows of odd numbers and odd lines, or any bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=60))
    header = draw(st.sampled_from(["x,mu,lambda", "x,mu", "", "# c\nx,mu,lambda"]))
    line = st.one_of(st.lists(numbers, min_size=3, max_size=3).map(",".join),
                     st.lists(numbers, max_size=4).map(",".join),
                     st.sampled_from(["", "# comment", "é,0,-1", "\x85", " "]))
    lines = [header] + draw(st.lists(line, max_size=8))
    text = draw(st.sampled_from(LINE_BREAKS)).join(lines) + draw(st.sampled_from(["", "\n"]))
    return text.encode() + draw(st.sampled_from([b"", b"\xff", b"\xed\xa0\x80"]))


def options(draw, *pairs):
    """Each option of pairs or none, drawn with its value; a value of None marks a flag."""
    argv = []
    for name, values in pairs:
        if draw(st.booleans()):
            argv += [name] if values is None else [name, draw(values)]
    return argv


@st.composite
def arguments(draw, input_path, other_path):
    """argv of any subcommand, with odd values and, now and then, an odd argument."""
    source = draw(st.sampled_from(["-", "-", input_path, input_path, "missing.json"]))
    command = draw(st.sampled_from(["eval", "curve", "classify", "cut", "arith", "verify"]))
    if command == "eval":
        argv = [source, draw(numbers)]
    elif command == "curve":
        argv = [source] + options(draw, ("--n", counts), ("--xmin", numbers), ("--xmax", numbers))
    elif command == "classify":
        argv = [draw(numbers), draw(numbers)] + options(draw, ("--eps", numbers))
    elif command == "cut":
        argv = [source, draw(st.sampled_from(["mu", "lambda", "nu"])), draw(numbers)]
    elif command == "arith":
        argv = [draw(st.sampled_from(["add", "sub", "mul", "div", "pow"])), source,
                draw(st.sampled_from([other_path, "-"]))] + options(draw, ("--levels", counts))
    else:
        argv = [source] + options(draw, ("--eps", numbers), ("--table", None),
                                  ("--kind", st.sampled_from(["dependent", "independent", "x"])))
    return [command, *argv, *draw(st.sampled_from([[]] * 8 + [["--frob"], ["extra"]]))]


def check_contract(code, err):
    assert code in CODES, err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif not (code == 2 and err.startswith("usage: ")):
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_input_exits_through_the_table(workdir, data):
    input_path, other_path = str(workdir / "input"), str(workdir / "other.json")
    argv = data.draw(arguments(input_path, other_path), label="argv")
    table = "--table" in argv
    content = data.draw(tables() if table else documents(), label="input")
    with open(other_path, "wb") as handle:
        handle.write(data.draw(documents(), label="other"))
    with open(input_path, "wb") as handle:
        handle.write(content)
    stdin = content
    if data.draw(st.booleans(), label="text stdin"):
        # a text stream, as an in-process caller may swap in: lone surrogates stand for bad bytes
        stdin = content.decode("utf-8", "surrogateescape")
    code, _, err = run_main(argv, stdin)
    check_contract(code, err)


# documents that ended in a traceback with exit 1: an integer too large for a
# float, one too long for int(), and nesting deeper than the recursion limit
ODD_DOCUMENTS = [
    ('{"a":' + "9" * 400 + ',"b":1,"c":2,"kind":"dependent"}',
     b"error: invalid shape: a must be finite, got inf\n"),
    ('{"a":' + "9" * 5000 + ',"b":1,"c":2,"kind":"dependent"}',
     b"error: invalid shape: a must be finite, got inf\n"),
    ('{"a":0,"b":1,"c":2,"kind":"dependent","x":' + "[" * 100000 + "]" * 100000 + "}",
     b"error: malformed JSON: maximum recursion depth exceeded"),
]


@pytest.mark.parametrize("doc,message", ODD_DOCUMENTS, ids=["int400", "int5000", "nested"])
def test_odd_json_exits_2(doc, message):
    result = run_cli(["eval", "-", "1"], doc)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(message) and result.stderr.count(b"\n") == 1


@pytest.mark.parametrize("argv,stdin", [
    (["eval", "-", "1"], '{"a":0,"b":1,"c":2,"kind":"dependent","x\\ny":1}'),
    (["eval", "-", "1"], '{"a":0,"b":1,"c":2,"kind":"dependent","x\\ny":1,"x\\ny":1}'),
    (["eval", "no\nfile.json", "1"], None),
    (["verify", "-", "--table", "--kind", "dependent"], b"x,mu,lambda\n0,0,-1\n\xed\xa0\x80"),
    (["classify", "-" + "9" * 400, "1e400", "--eps", "-nan"], None),
], ids=["field", "duplicate", "path", "surrogate", "classify"])
def test_odd_input_in_a_process(argv, stdin):
    result = run_cli(argv, stdin)
    check_contract(result.returncode, result.stderr.decode())
    assert result.stdout == b""
