"""The text formats: golden-file compatibility, real line numbers in errors,
checkpoint structure checks, and fuzzed readers checked against the
per-line block parse as the oracle."""

import json
import os
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from strnn import adjacency, datagen, flow, neural, textio
from strnn.errors import ParseError, StrnnError

DATA = os.path.join(os.path.dirname(__file__), "data")


def golden(name):
    return os.path.join(DATA, name)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Golden files

@pytest.fixture(scope="module")
def arrays():
    with np.load(golden("golden.npz")) as npz:
        return dict(npz)


@pytest.mark.parametrize("name", ["square", "rect"])
def test_golden_matrix(name, arrays, tmp_path):
    M = adjacency.read_matrix(golden(f"{name}.txt"))
    assert_bitwise(M, arrays[name])
    adjacency.write_matrix(M, tmp_path / "m.txt")
    assert read_bytes(tmp_path / "m.txt") == read_bytes(golden(f"{name}.txt"))


@pytest.mark.parametrize("name", ["binary", "real"])
def test_golden_dataset(name, arrays, tmp_path):
    """The rows read back bitwise and write back to the same bytes.  The
    rows of real.txt carry inf and -inf, which the text format keeps but a
    dataset may not hold, so read_dataset stops at its line 2; that file's
    rows are read as a plain block."""
    path = golden(f"{name}.txt")
    with open(path + ".json") as fh:
        side = json.load(fh)
    if name == "real":
        with pytest.raises(ParseError, match=r"real\.txt:2: real dataset entries must be finite"):
            datagen.read_dataset(path)
        reader = textio.Reader(path)
        n, d = reader.dims(reader.line("header")[:2])
        x = reader.block(n, d)
        gen = datagen.GeneratedData(x, None, "real", side["family"],
                                    datagen.read_params(path + ".json", side))
        dataset = neural.Dataset(x, "real", *(np.asarray(side["splits"][part])
                                              for part in ("train", "val", "test")))
    else:
        gen, dataset = datagen.read_dataset(path)
    assert_bitwise(gen.x, arrays[f"{name}_x"])
    out = str(tmp_path / f"{name}.txt")
    spec = datagen.SynthSpec.from_dict(side["spec"])
    datagen.write_dataset(out, gen, dataset, spec=spec, adjacency_path=side["adjacency_file"])
    assert read_bytes(out) == read_bytes(path)
    assert read_bytes(out + ".json") == read_bytes(path + ".json")


@pytest.mark.parametrize("name", ["mlp_binary", "mlp_gaussian"])
def test_golden_mlp(name, arrays, tmp_path):
    net = flow.load_checkpoint(golden(f"{name}.txt"))
    for k, p in enumerate(net.params()):
        assert_bitwise(p, arrays[f"{name}_{k}"])
    assert net.pattern.dtype == np.int64
    neural.save_mlp(net, tmp_path / "ck.txt")
    assert read_bytes(tmp_path / "ck.txt") == read_bytes(golden(f"{name}.txt"))


def test_golden_flow(arrays, tmp_path):
    fl = flow.load_flow(golden("flow.txt"))
    assert_bitwise(fl.mu, arrays["flow_mu"])
    assert_bitwise(fl.sigma, arrays["flow_sigma"])
    # The arrays are numbered conditioner by conditioner, each in params() order.
    for k, p in enumerate(p for net in fl.layers for p in net.params()):
        assert_bitwise(p, arrays[f"flow_{k}"])
    assert fl.adjacency.dtype == np.int64
    flow.save_flow(fl, tmp_path / "fl.txt")
    assert read_bytes(tmp_path / "fl.txt") == read_bytes(golden("flow.txt"))


def test_load_checkpoint_dispatches_on_kind():
    assert isinstance(flow.load_checkpoint(golden("mlp_binary.txt")), neural.MaskedMLP)
    assert isinstance(flow.load_checkpoint(golden("flow.txt")), flow.AffineFlow)
    with pytest.raises(ParseError, match="kind") as info:
        flow.load_flow(golden("mlp_gaussian.txt"))
    assert info.value.line_no == 2


# ---------------------------------------------------------------------------
# Line numbers count blank lines

@pytest.mark.parametrize("token", ["x", "1.0", "99999999999999999999"])
def test_matrix_error_names_file_line(token, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(f"2\n\n0 0\n\n1 {token}\n")
    with pytest.raises(ParseError, match="non-integer") as info:
        adjacency.read_matrix(path)
    assert info.value.line_no == 5


def test_dataset_error_names_file_line(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("\n2 2 real\n1.0 2.0\n\n\n1.0 frog\n")
    with pytest.raises(ParseError, match="non-numeric") as info:
        datagen.read_dataset(str(path))
    assert info.value.line_no == 6


def test_checkpoint_error_names_file_line(tmp_path):
    lines = read_bytes(golden("mlp_binary.txt")).decode().split("\n")
    bad = lines.index("weight 0") + 3          # second row of weight 0
    lines[bad] = lines[bad].replace(" ", " oops ", 1)
    lines[4:4] = ["", ""]
    path = tmp_path / "ck.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(ParseError, match="values") as info:
        flow.load_checkpoint(path)
    assert info.value.line_no == bad + 1 + 2


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"2\n0 0\n1 \xff\n")
    with pytest.raises(ParseError, match="text") as info:
        adjacency.read_matrix(path)
    assert info.value.line_no == 3


def test_json_is_strict(tmp_path):
    """A non-finite float, at any depth, is written as null."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    path = tmp_path / "out.json"
    textio.write_json(path, {"a": np.nan, "b": [1.5, -np.inf, {"c": np.float64(np.inf)}],
                             "d": (0.1, 2, None), "e": "x"})
    assert json.loads(path.read_text(), parse_constant=reject) == {
        "a": None, "b": [1.5, None, {"c": None}], "d": [0.1, 2, None], "e": "x"}


# ---------------------------------------------------------------------------
# Checkpoint structure

def edited(path, tmp_path, old, new):
    text = read_bytes(path).decode()
    assert old in text
    out = tmp_path / "edited.txt"
    out.write_text(text.replace(old, new, 1))
    return out


@pytest.mark.parametrize("old, new, match", [
    ("dim 4", "dim four", "positive integers"),
    ("layers 2", "layers two", "positive integers"),
    ("layers 2", "layers 0", "positive integers"),
    ("head binary", "head poisson", "unknown head"),
    ("pattern\n4 4", "pattern\n4 3", "pattern block"),
    ("pattern\n4 4\n0.0", "pattern\n4 4\nnan", "0 or 1"),
    ("weight 0\n6 4", "weight 0\n6 3", "weight 0 block"),
    ("bias 1\n1 4", "bias 1\n1 3", "bias 1 block"),
    ("mask 1\n4 6", "mask 1\n4 5", "mask 1 block"),   # widths do not chain
    ("mask 1\n4 6", "mask 1\n3 6", "mask 1 block"),   # head needs d rows
    ("end", "end\nmore", "after"),
])
def test_malformed_mlp_checkpoint(old, new, match, tmp_path):
    with pytest.raises(ParseError, match=match):
        flow.load_checkpoint(edited(golden("mlp_binary.txt"), tmp_path, old, new))


@pytest.mark.parametrize("old, new, match", [
    ("mu\n1 4", "mu\n1 3", "mu block"),
    ("sigma\n1 4", "sigma\n1 5", "sigma block"),
    ("adjacency\n4 4", "adjacency\n3 4", "adjacency block"),
    ("conditioner 1", "conditioner 2", "conditioner 1"),
])
def test_malformed_flow_checkpoint(old, new, match, tmp_path):
    with pytest.raises(ParseError, match=match):
        flow.load_flow(edited(golden("flow.txt"), tmp_path, old, new))


# ---------------------------------------------------------------------------
# Round trips and fuzzed readers

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, np.inf, -np.inf]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
FUZZ = settings(max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data(), r=st.integers(1, 6), c=st.integers(1, 6))
def test_block_roundtrip_is_bitwise(data, r, c, tmp_path):
    a = np.array(data.draw(st.lists(floats, min_size=r * c, max_size=r * c))).reshape(r, c)
    path = tmp_path / "b.txt"
    with open(path, "w") as fh:
        textio.write_block(fh, "x", a)
    reader = textio.Reader(path)
    back = reader.named_block("x", r, c)
    reader.finish("x")
    assert_bitwise(back, a)
    # the block conversion agrees with float() on every token
    tokens = path.read_text().split()[3:]
    assert_bitwise(back.ravel(), np.array([float(t) for t in tokens]))


TOKENS = ["", "x", "0", "1", "-1", "2", "1.0", "-0.0", "nan", "inf", "1e999", "3.5",
          "99999999999999999999", "end", "kind", "mlp", "flow"]


@st.composite
def mutations(draw, text):
    """A file text with one token or line changed, or cut short."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["token", "drop", "dup", "blank", "truncate", "byte"]))
    if op == "token":
        toks = lines[i].split() or [""]
        k = draw(st.integers(0, len(toks) - 1))
        toks[k] = draw(st.one_of(st.sampled_from(TOKENS), st.text(
            st.characters(blacklist_categories=("Cs",)), max_size=4)))
        lines[i] = " ".join(toks)
    elif op == "drop":
        del lines[i]
    elif op == "dup":
        lines.insert(i, lines[i])
    elif op == "blank":
        lines.insert(i, "")
    data = "\n".join(lines).encode()
    if op == "truncate":
        data = data[:draw(st.integers(0, len(data)))]
    elif op == "byte":
        pos = draw(st.integers(0, len(data) - 1))
        data = data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]
    return data


def reference_block(self, r, c, dtype=np.float64, valid=None, why=None):
    """``Reader.block`` as a plain loop of one ``np.array`` per line: the
    oracle of the one-pass read, for arrays, errors and line numbers."""
    what, rows, line_nos = f"{r} rows of {c} values", [], []
    for _ in range(r):
        row = self.line(what)
        line_nos.append(self.line_no)
        if len(row) != c:
            raise self.error(f"expected {c} values, found {len(row)}")
        try:
            rows.append(np.array(row, dtype=dtype))
        except (ValueError, OverflowError):
            kind = "integer" if dtype == np.int64 else "numeric"
            raise self.error(f"non-{kind} token in {' '.join(row)!r}") from None
    a = np.array(rows)
    if valid is not None and not (ok := valid(a).all(axis=1)).all():
        self.line_no = line_nos[np.argmin(ok)]
        raise self.error(why)
    return a


def state(obj):
    """What a read produced, comparable with ==: arrays by dtype, shape and
    bytes, objects by their fields, scalars by repr (so NaN equals NaN)."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return tuple(map(state, obj))
    if isinstance(obj, dict):
        return tuple((k, state(v)) for k, v in sorted(obj.items()))
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, state(vars(obj))
    return repr(obj)


def outcome(read):
    """``state`` of what ``read()`` returns, or the StrnnError it raises."""
    try:
        return "ok", state(read())
    except StrnnError as exc:
        return "error", type(exc).__name__, str(exc), getattr(exc, "line_no", None)


def same_as_reference(read):
    """``read()`` gives the same result or error with ``Reader.block`` as with
    the per-line oracle; a read may only fail with a StrnnError."""
    with mock.patch.object(textio.Reader, "block", reference_block):
        expected = outcome(read)
    assert outcome(read) == expected


ODD_TOKENS = ["1_0", "nan", "-0", "1e400", "\u0967", "9223372036854775808",
              "0", "1", "2.5", "-inf", "x", "1.0", "+1", "0x1"]
SEPARATORS = [" ", "\t", "\r", "\x0b", "\x1c", "\xa0", "\x00"]
VALID = {"none": None, "finite": np.isfinite, "binary": lambda a: (a == 0) | (a == 1)}


@st.composite
def block_lines(draw):
    """(r, c, lines) for a block that may be blank in places, ragged or short."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = [""] * draw(st.integers(0, 1))
    for _ in range(draw(st.integers(0, r + 1))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\x0b", "\xa0\x1c"])))
        n = max(1, c + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
        toks = draw(st.lists(st.sampled_from(ODD_TOKENS), min_size=n, max_size=n))
        seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=n, max_size=n))
        line = "".join(sep + t for sep, t in zip(seps, toks))
        lines.append(line if draw(st.booleans()) else line[1:])     # a leading separator?
    return r, c, lines


@settings(max_examples=600)
@given(block=block_lines(), dtype=st.sampled_from([np.float64, np.int64]),
       valid=st.sampled_from(sorted(VALID)))
@example(block=(1, 2, ["1.0"]), dtype=np.float64, valid="none")            # too few
@example(block=(2, 1, ["1", "2 3"]), dtype=np.float64, valid="none")       # ragged
@example(block=(2, 1, ["1", " ", "2"]), dtype=np.float64, valid="none")    # blank inside
@example(block=(1, 1, ["\x0b"]), dtype=np.float64, valid="none")           # blank only
@example(block=(2, 1, ["1"]), dtype=np.float64, valid="none")              # short file
@example(block=(1, 2, ["1\r2"]), dtype=np.float64, valid="none")           # \r separates
@example(block=(1, 1, ["1_0"]), dtype=np.float64, valid="none")            # Python-only
@example(block=(2, 2, ["0 1", "1 nan"]), dtype=np.float64, valid="binary")
def test_block_matches_per_line_reference(block, dtype, valid):
    """Bytes, dtype and shape of the array, the ParseError and its line, and
    the line the cursor ends on are those of the per-line parse."""
    r, c, lines = block

    def read():
        reader = textio.Reader.__new__(textio.Reader)
        reader.path, reader.line_no, reader.lines = "b.txt", 0, list(lines)
        return reader.block(r, c, dtype, VALID[valid], "invalid entry"), reader.line_no

    same_as_reference(read)


def fuzz(name, load, tmp_path, data):
    """Load a mutated copy of a golden file: it loads or raises StrnnError,
    the same with the one-pass block read as with the per-line oracle."""
    src = golden(name)
    path = str(tmp_path / name)
    if os.path.exists(src + ".json"):
        shutil.copyfile(src + ".json", path + ".json")
    with open(path, "wb") as fh:
        fh.write(data.draw(mutations(read_bytes(src).decode())))
    same_as_reference(lambda: load(path))


@FUZZ
@given(data=st.data(), name=st.sampled_from(["square.txt", "rect.txt"]))
def test_fuzzed_matrix_loads_or_raises_strnn_error(data, name, tmp_path):
    as_adjacency = data.draw(st.booleans())
    fuzz(name, lambda path: adjacency.read_matrix(path, as_adjacency), tmp_path, data)


@FUZZ
@given(data=st.data(), name=st.sampled_from(["binary.txt", "real.txt"]))
def test_fuzzed_dataset_loads_or_raises_strnn_error(data, name, tmp_path):
    fuzz(name, datagen.read_dataset, tmp_path, data)


@FUZZ
@given(data=st.data(),
       name=st.sampled_from(["mlp_binary.txt", "mlp_gaussian.txt", "flow.txt"]))
def test_fuzzed_checkpoint_loads_or_raises_strnn_error(data, name, tmp_path):
    fuzz(name, flow.load_checkpoint, tmp_path, data)
