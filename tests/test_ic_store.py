"""Information-content storage: the binary sidecar of an IC table, and the names a table may hold."""

import math
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsem import corpus, load_ic_table, load_taxonomy, lso, save_ic_table, taxonomy
from distsem.errors import ParseError, ValidationError
from distsem.taxonomy import ICTable

from test_cli import run_cli
from test_counts_store import beside_stdout, flip_offsets, names_swapped, odd_names, sidecar_of, text

FIXTURES = Path(__file__).resolve().parent / "fixtures"
TAXONOMY = FIXTURES / "toy_taxonomy.tsv"

#: Concept pairs of the toy taxonomy: siblings, cousins, a concept and its ancestor, and one twice.
PAIRS = [("dog", "cat"), ("dog", "hammer"), ("cat", "animal"), ("tool", "tool")]


def build_ic(tmp_path: Path, name: str = "ic.tsv", freqs: str = "dog\t5\ncat\t3\nhammer\t2\ntool\t1\n",
             *flags) -> Path:
    """An IC table of the toy taxonomy built by the CLI from ``freqs``, with its sidecar."""
    freq_file = tmp_path / f"{name}.freqs"
    freq_file.write_text(freqs, encoding="utf-8")
    out = tmp_path / name
    code, _, err = run_cli(["ic-build", "--taxonomy", TAXONOMY, "--freqs", freq_file, *flags, "--out", out])
    assert code == 0, err
    return out


@pytest.fixture()
def ic_file(tmp_path):
    return build_ic(tmp_path)


def scores(ic: Path, out: Path) -> bytes:
    """Every ``taxo-distance`` output that reads ``ic``, for every pair, and the lso of each pair."""
    lines = []
    for measure in ("res", "jc", "lin"):
        for c1, c2 in PAIRS:
            code, _, err = run_cli(["taxo-distance", "--taxonomy", TAXONOMY, "--ic", ic,
                                    "--taxo-measure", measure, "--c1", c1, "--c2", c2, "--out", out])
            assert code == 0, err
            lines.append(out.read_bytes())
    table, taxo = load_ic_table(ic), load_taxonomy(TAXONOMY)
    lines += [lso(taxo, c1, c2, table).encode() for c1, c2 in PAIRS]
    return b"\n".join(lines)


def test_outputs_are_the_same_with_the_sidecar_stale_and_deleted(ic_file, tmp_path):
    other = build_ic(tmp_path, "other.tsv", "cat\t9\ntool\t4\n")
    outputs = []
    for state in ("sidecar", "stale", "deleted"):
        if state == "stale":  # the sidecar of another table: it records another file's digest
            sidecar_of(ic_file).write_bytes(sidecar_of(other).read_bytes())
        elif state == "deleted":
            sidecar_of(ic_file).unlink()
        with mock.patch.object(taxonomy, "_parse_ic_table", wraps=taxonomy._parse_ic_table) as parse:
            outputs.append(scores(ic_file, tmp_path / f"{state}.out"))
        assert parse.called == (state != "sidecar"), state
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_valid_sidecar_is_read_without_the_tsv(ic_file):
    parsed = taxonomy._parse_ic_table(ic_file)
    with mock.patch.object(corpus, "read_tagged_tsv", side_effect=AssertionError("the TSV was parsed")), \
            corpus._recording() as record:
        loaded = load_ic_table(ic_file)
    assert loaded == parsed and loaded.log_base == parsed.log_base
    assert record == {str(ic_file): sha256(ic_file.read_bytes()).hexdigest()}
    assert sidecar_of(ic_file).stat().st_mode == ic_file.stat().st_mode


def test_a_table_saved_without_a_sidecar_removes_an_earlier_one(ic_file):
    """A table the reader would refuse gets no sidecar, and the one of the table saved before goes."""
    assert sidecar_of(ic_file).exists()
    save_ic_table(ICTable(prob={"a": 1.5}, ic={"a": 0.0}, log_base=2.0), ic_file)
    assert not sidecar_of(ic_file).exists()


def test_another_version_is_ignored(ic_file):
    sidecar = sidecar_of(ic_file)
    with np.load(sidecar) as held:
        members = dict(held)
    np.savez(sidecar, **{**members, "version": corpus._SIDECAR_VERSION + 1})
    with mock.patch.object(taxonomy, "_parse_ic_table", wraps=taxonomy._parse_ic_table) as parse:
        loaded = load_ic_table(ic_file)
    assert parse.called and loaded == taxonomy._parse_ic_table(ic_file)


def refused(ic: Path, sidecar: Path) -> str:
    code, out, err = run_cli(["taxo-distance", "--taxonomy", TAXONOMY, "--ic", ic,
                              "--taxo-measure", "res", "--c1", "dog", "--c2", "cat"])
    assert (code, out) == (2, ""), err
    assert f"{sidecar}: damaged information-content sidecar" in err
    return err


@pytest.mark.parametrize("keep", [0, 1, 30, 0.5, -1])
def test_truncated_sidecar(ic_file, keep):
    sidecar = sidecar_of(ic_file)
    data = sidecar.read_bytes()
    sidecar.write_bytes(data[: int(keep * len(data)) if isinstance(keep, float) else keep])
    refused(ic_file, sidecar)


def test_flipped_sidecar(ic_file):
    sidecar = sidecar_of(ic_file)
    data = sidecar.read_bytes()
    offsets = flip_offsets(data)
    assert len(offsets) == 2 * 4 + 2  # the shapes of the version and the log base are ()
    for at in offsets + [0, len(data) - 5]:  # and the zip's first and last records
        sidecar.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :])
        refused(ic_file, sidecar)


def concepts_with(change):
    """A change to the joined concept names: ``change`` applied to the list of names."""
    return lambda joined: text("\n".join(change(bytes(joined).decode().split("\n"))))


@pytest.mark.parametrize(
    "key, change, problem",
    [
        ("prob", lambda a: a[:-1], "one of each per concept"),
        ("ic", lambda a: np.append(a, 1.0), "one of each per concept"),
        ("prob", lambda a: a.astype(np.float32), "not float64"),
        ("ic", lambda a: a.astype(np.int64), "not float64"),
        ("log_base", lambda a: np.array([a]), "not float64, one of each"),
        ("log_base", lambda a: a.astype(np.float32), "not float64"),
        ("concepts", concepts_with(lambda names: names[1:]), "one of each per concept"),
        ("prob", lambda a: np.concatenate([[0.0], a[1:]]), "a prob outside (0, 1]"),
        ("prob", lambda a: np.concatenate([[1.5], a[1:]]), "a prob outside (0, 1]"),
        ("prob", lambda a: np.concatenate([[np.nan], a[1:]]), "a prob outside (0, 1]"),
        ("ic", lambda a: np.concatenate([[np.inf], a[1:]]), "an ic not finite"),
        ("ic", lambda a: np.concatenate([[np.nan], a[1:]]), "an ic not finite"),
        ("ic", lambda a: -a - 1.0, "of the wrong sign"),
        ("log_base", lambda a: np.float64(0.5), "of the wrong sign"),
        ("log_base", lambda a: np.float64(1.0), "log base 1.0"),
        ("log_base", lambda a: np.float64(-2.0), "log base -2.0"),
        ("log_base", lambda a: np.float64(np.inf), "log base inf"),
        ("concepts", names_swapped, "not strictly sorted"),
        ("concepts", concepts_with(lambda names: [names[0]] * 2 + names[2:]), "not strictly sorted"),
        ("concepts", concepts_with(lambda names: ["#" + names[0]] + names[1:]), "would not read back"),
        ("concepts", concepts_with(lambda names: [names[0] + "\tx"] + names[1:]), "would not read back"),
        ("concepts", concepts_with(lambda names: [names[0] + "\r"] + names[1:]), "would not read back"),
        ("concepts", concepts_with(lambda names: [""] + names[1:]), "would not read back"),
        ("concepts", lambda a: np.append(a, 255).astype(np.uint8), "UnicodeDecodeError"),
    ],
)
def test_structurally_invalid_sidecar(ic_file, key, change, problem):
    """A well-formed zip whose arrays are not a table the TSV could give is refused, not read."""
    sidecar = sidecar_of(ic_file)
    with np.load(sidecar) as held:
        members = dict(held)
    np.savez(sidecar, **{**members, key: change(members[key].copy())})
    assert problem in refused(ic_file, sidecar)


def test_an_empty_table_in_a_sidecar_is_refused(ic_file):
    sidecar = sidecar_of(ic_file)
    with np.load(sidecar) as held:
        members = dict(held)
    empty = np.empty(0, dtype=np.float64)
    np.savez(sidecar, **{**members, "concepts": text(""), "prob": empty, "ic": empty})
    assert "one of each per concept" in refused(ic_file, sidecar)  # "" splits into one empty name


@pytest.mark.parametrize("missing", ["concepts", "prob", "log_base", "sha256"])
def test_sidecar_without_a_member(ic_file, missing):
    sidecar = sidecar_of(ic_file)
    with np.load(sidecar) as held:
        members = {key: value for key, value in held.items() if key != missing}
    np.savez(sidecar, **members)
    assert "KeyError" in refused(ic_file, sidecar)


@pytest.mark.parametrize(
    "content", [b"garbage", b"", b"\x93NUMPY\x01\x00", b"PK\x05\x06" + bytes(18)]
)
def test_garbage_sidecar(ic_file, content):
    sidecar_of(ic_file).write_bytes(content)
    refused(ic_file, sidecar_of(ic_file))


def test_ic_build_to_stdout_writes_no_sidecar(tmp_path):
    freqs = tmp_path / "freqs.tsv"
    freqs.write_text("dog\t5\ncat\t3\n", encoding="utf-8")
    before = beside_stdout()
    proc = subprocess.run(
        [sys.executable, "-m", "distsem", "ic-build", "--taxonomy", str(TAXONOMY),
         "--freqs", str(freqs), "--out", "/dev/stdout"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={"PYTHONPATH": str(Path(corpus.__file__).parent.parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("#manifest\t") and "\n#ic\t" in proc.stdout
    assert beside_stdout() == before and list(tmp_path.iterdir()) == [freqs]


def test_a_symlinked_ic_file_has_no_sidecar(tmp_path, ic_file):
    table = load_ic_table(ic_file)
    target = tmp_path / "real.tsv"
    target.touch()
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    save_ic_table(table, link)
    assert not sidecar_of(link).exists() and not sidecar_of(target).exists()
    assert load_ic_table(link) == table


def test_sidecar_bytes_repeat_from_save_to_save(ic_file, tmp_path):
    table, path = load_ic_table(ic_file), tmp_path / "again.tsv"
    save_ic_table(table, path)
    first = sidecar_of(path).read_bytes()
    later = time.time() + 86_400  # a sidecar that recorded when it was written would change
    with mock.patch("time.time", return_value=later):
        save_ic_table(table, path)
    assert sidecar_of(path).read_bytes() == first


@pytest.mark.parametrize("name", ["#x", "", "a\tb", "a\nb", "b\r", "#"])
def test_a_name_the_tsv_would_not_read_back_is_refused(tmp_path, name):
    # '#x' was written, and then read back as a note line: {'#x': .5, 'a': 1.0} loaded as {'a': 1.0}
    path = tmp_path / "ic.tsv"
    with pytest.raises(ValidationError, match="would not read back") as err:
        save_ic_table(ICTable(prob={name: 0.5, "a": 1.0}, ic={name: 1.0, "a": 0.0}), path)
    assert str(err.value).startswith(f"{path}: the concept {name!r} ")
    assert list(tmp_path.iterdir()) == []


def test_numpy_values_read_back_from_the_tsv(tmp_path):
    """Values written by repr of a numpy float (``np.float64(0.5)``) did not parse; the sidecar hid that."""
    path = tmp_path / "ic.tsv"
    table = ICTable(prob={"a": np.float64(0.5), "b": 1}, ic={"a": np.float64(1.0), "b": 0}, log_base=2)
    save_ic_table(table, path)
    assert table == taxonomy._parse_ic_table(path) == load_ic_table(path)
    assert "np." not in path.read_text(encoding="utf-8")


def bits(values) -> np.ndarray:
    return np.array(list(values), dtype=np.float64).view(np.int64)


probs = st.floats(0.0, 1.0, exclude_min=True)
magnitudes = st.one_of(st.floats(0.0, 1e300), st.just(-0.0), st.just(5e-324))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(odd_names, st.tuples(probs, magnitudes), max_size=6),
    st.sampled_from([2.0, math.e, 10.0, 0.5]),
    st.sampled_from([None, ("prob", 0.0), ("prob", 1.5), ("prob", math.nan), ("ic", math.inf),
                     ("ic", math.nan), ("ic", -1.0)]),
)
def test_sidecar_reads_back_as_the_tsv(values, log_base, spoil):
    """save_ic_table refuses a name; or the sidecar, the TSV and the table saved agree bit for bit.

    A table the TSV reader refuses gets no sidecar.
    """
    sign = 1.0 if log_base > 1.0 else -1.0
    prob = {name: p for name, (p, _) in values.items()}
    ic = {name: sign * m for name, (_, m) in values.items()}
    if spoil is not None and values:
        column, value = spoil
        name = next(iter(values))
        (prob if column == "prob" else ic)[name] = value * (sign if column == "ic" else 1.0)
    table = ICTable(prob=prob, ic=ic, log_base=log_base)
    bad_name = any(not n or n[0] == "#" or any(c in n for c in "\t\n\r") for n in values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ic.tsv"
        try:
            save_ic_table(table, path)
        except ValidationError:
            assert bad_name and not path.exists()
            return
        assert not bad_name
        if spoil is not None or not values:  # a value out of range, or no concept: no sidecar
            assert not sidecar_of(path).exists()
            with pytest.raises((ParseError, ValidationError)):
                load_ic_table(path)
            return
        assert sidecar_of(path).exists()
        from_sidecar, from_tsv = load_ic_table(path), taxonomy._parse_ic_table(path)
    names = sorted(prob)
    for loaded in (from_sidecar, from_tsv):
        assert list(loaded.prob) == list(loaded.ic) == names
        assert (bits(loaded.prob.values()) == bits(map(prob.get, names))).all()
        assert (bits(loaded.ic.values()) == bits(map(ic.get, names))).all()
        assert bits([loaded.log_base]) == bits([log_base])
