from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mgsched.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main, parse_alpha
from mgsched.model import PHI, UNBOUNDED


def test_parse_alpha_symbolic():
    assert parse_alpha("inf") == UNBOUNDED
    assert parse_alpha("phi") == PHI
    assert parse_alpha("phi2") == PHI**2
    assert parse_alpha("1.25") == 1.25
    assert parse_alpha("1.7976931348623157e308") == 1.7976931348623157e308


def test_cli_import_loads_no_process_pool():
    # Only `sweep --jobs` > 1 uses the pool; importing it costs every command
    # about a third of its start-up.
    code = "import sys, mgsched.cli; print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_gen_writes_instance_and_flags(tmp_path, capsys):
    out = tmp_path / "inst.jsonl"
    assert main(["gen", "--variant", "agreeable-deadline", "--n", "20", "--seed", "5", "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "wrote 20 packets" in captured
    assert "agreeable-deadline" in captured
    assert out.read_text().count("\n") == 21  # meta line + 20 packets


def test_gen_empty_instance_has_meta_line(tmp_path):
    out = tmp_path / "empty.jsonl"
    assert main(["gen", "--variant", "general", "--n", "0", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 and "meta" in lines[0]


def test_gen_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["gen", "--variant", "agreeable-deadline", "--n", "100", "--seed", "42"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_lb_metadata_and_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["lb", "--k", "6", "--epsilon", "1e-6", "--out", str(a)]) == EXIT_OK
    assert main(["lb", "--k", "6", "--epsilon", "1e-6", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    first = a.read_text().splitlines()[0]
    assert '"k": 6' in first and '"epsilon": 1e-06' in first


def test_run_on_lb_sends_only_unbounded_packets(tmp_path, capsys):
    inst = tmp_path / "lb.jsonl"
    trace = tmp_path / "trace.jsonl"
    main(["lb", "--k", "5", "--out", str(inst)])
    capsys.readouterr()
    rc = main(
        ["run", "--in", str(inst), "--policy", "mg", "--alpha", "phi", "--beta", "phi", "--trace-out", str(trace)]
    )
    assert rc == EXIT_OK
    import json

    from mgsched.model import load_instance

    with open(inst) as fp:
        by_id = {p.id: p for p in load_instance(fp).packets}
    for line in trace.read_text().splitlines():
        obj = json.loads(line)
        if "summary" in obj:
            continue
        if obj["sent_id"] is not None:
            assert by_id[obj["sent_id"]].deadline == UNBOUNDED


def test_run_greedy_equals_mg11(tmp_path, capsys):
    # --policy greedy is an alias of MG(1, 1): same stdout, whatever --alpha/--beta say
    inst = tmp_path / "g.jsonl"
    main(["gen", "--variant", "general", "--n", "40", "--seed", "17", "--out", str(inst)])
    capsys.readouterr()
    for args in (
        ["run", "--in", str(inst)],
        ["ratio", "--in", str(inst)],
        ["sweep", "--variants", "general,agreeable-value", "--trials", "5", "--n", "8"],
    ):
        assert main(args + ["--policy", "greedy", "--alpha", "3", "--beta", "2"]) == EXIT_OK
        greedy_out = capsys.readouterr().out
        assert main(args + ["--policy", "mg", "--alpha", "1", "--beta", "1"]) == EXIT_OK
        assert greedy_out == capsys.readouterr().out
        assert "greedy" not in greedy_out


def test_edf_refuses_a_beta_other_than_one(tmp_path, capsys):
    # EDF_alpha is the send rule with beta = 1: an explicit --beta 3 is refused, never ignored
    inst = tmp_path / "g.jsonl"
    assert main(["gen", "--n", "10", "--out", str(inst)]) == EXIT_OK
    for args in (["run", "--in", str(inst)], ["ratio", "--in", str(inst)], ["sweep", "--trials", "1"]):
        capsys.readouterr()
        assert main(args + ["--policy", "edf", "--alpha", "2", "--beta", "3"]) == EXIT_VALIDATION, args
        captured = capsys.readouterr()
        assert captured.out == "" and "EDF_alpha has beta = 1, got beta=3.0" in captured.err
    # with no --beta, the sweep's EDF has beta = 1, where its MG defaults to phi
    assert main(["sweep", "--trials", "2", "--n", "8", "--policy", "edf"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 9 and all("edf(a=1.61803, b=1)" in row for row in rows), rows


def test_run_empty_instance(tmp_path, capsys):
    inst = tmp_path / "e.jsonl"
    main(["gen", "--variant", "general", "--n", "0", "--out", str(inst)])
    capsys.readouterr()
    assert main(["run", "--in", str(inst)]) == EXIT_OK
    assert "totalValue 0.0" in capsys.readouterr().out


def test_opt_command(tmp_path, capsys):
    inst = tmp_path / "g.jsonl"
    main(["gen", "--variant", "general", "--n", "10", "--seed", "3", "--out", str(inst)])
    capsys.readouterr()
    assert main(["opt", "--in", str(inst)]) == EXIT_OK
    assert "optValue" in capsys.readouterr().out


def test_ratio_unbounded_alpha_on_anti_agreeable_value(tmp_path, capsys):
    inst = tmp_path / "av.jsonl"
    main(["gen", "--variant", "anti-agreeable-value", "--n", "30", "--seed", "9", "--out", str(inst)])
    capsys.readouterr()
    csv = tmp_path / "r.csv"
    rc = main(["ratio", "--in", str(inst), "--policy", "mg", "--alpha", "inf", "--csv-out", str(csv)])
    assert rc == EXIT_OK
    assert "ratio 1.0" in capsys.readouterr().out
    header, row = csv.read_text().strip().splitlines()
    assert header.startswith("instance_id,variant,policy")
    assert ",inf," in row


def test_ratio_is_one_when_alg_sends_opts_set(tmp_path, capsys):
    # Both policies send all three packets, as OPT does.  Summed as a running
    # float in send order, ALG would read 0.6000000000000001 and the ratio
    # 0.9999999999999998; both sums are exactly rounded.
    inst = tmp_path / "three.jsonl"
    inst.write_text("".join(
        f'{{"id": {i}, "release": 1, "deadline": {i + 1}, "value": {value}}}\n' for i, value in enumerate((0.1, 0.2, 0.3))
    ))
    for policy in (["--policy", "edf", "--alpha", "inf"], ["--policy", "mg", "--alpha", "inf", "--beta", "1"]):
        assert main(["ratio", "--in", str(inst), *policy]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["optValue 0.6", "algValue 0.6", "ratio 1.0"], policy


def test_sweep_all_produces_nine_rows(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    rc = main(["sweep", "--variants", "all", "--trials", "30", "--seed", "1", "--n", "10", "--csv-out", str(csv)])
    assert rc == EXIT_OK
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 10  # header + general + 8 variants
    assert lines[1].startswith("general,")


def test_sweep_policy_flags_set_every_cell(capsys):
    # any of --policy, --alpha and --beta replaces the table-1 cells with one policy in every cell;
    # no --policy means MG, and alpha and beta default to phi
    base = ["sweep", "--trials", "3", "--n", "8"]
    for flags, policy in (
        (["--alpha", "2", "--beta", "1"], "mg(a=2, b=1)"),
        (["--alpha", "2"], "mg(a=2, b=1.61803)"),
        (["--beta", "1"], "mg(a=1.61803, b=1)"),
        (["--policy", "mg"], "mg(a=1.61803, b=1.61803)"),
    ):
        assert main(base + flags) == EXIT_OK, flags
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 9 and all(policy in row for row in rows), rows
    assert main(base + ["--alpha", "2", "--beta", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert main(base + ["--policy", "mg", "--alpha", "2", "--beta", "1"]) == EXIT_OK
    assert out == capsys.readouterr().out


def test_sweep_jobs_invariance(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--variants", "general,agreeable-deadline", "--trials", "20", "--seed", "2", "--n", "8"]
    assert main(base + ["--jobs", "1", "--csv-out", str(a)]) == EXIT_OK
    assert main(base + ["--jobs", "4", "--csv-out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_chaincheck_reports_zero_violations(capsys):
    rc = main(["chaincheck", "--alpha", "phi2", "--trials", "2000", "--k-max", "10", "--seed", "4"])
    assert rc == EXIT_OK
    assert "0 violations in 2000 chains" in capsys.readouterr().out
    # chains long enough that alpha^k overflows a float
    assert main(["chaincheck", "--k-max", "2000", "--trials", "50"]) == EXIT_OK
    assert "0 violations in 50 chains" in capsys.readouterr().out


def test_chaincheck_draws_chain_lengths_without_randrange(monkeypatch, capsys):
    # randrange's algorithm is private to the random module; the chain length
    # is drawn by the generators' rule from getrandbits, as the sweep's sizes are.
    import random

    def refuse(*args, **kwargs):
        raise RuntimeError("Random.randrange called")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    assert main(["chaincheck", "--trials", "50"]) == EXIT_OK
    assert "0 violations in 50 chains" in capsys.readouterr().out


def test_lb_epsilon_too_small_for_floats_is_a_validation_error(tmp_path, capsys):
    # inside LowerBoundSpec's range, but MG's comparisons no longer clear the margin
    out = tmp_path / "lb.jsonl"
    for k, eps, stage in (("3", "1e-16", "stage 2"), ("10", "1e-12", "the flourish step")):
        assert main(["lb", "--k", k, "--epsilon", eps, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: epsilon {eps} is too small for k={k}: at {stage}"), err
        assert "below the margin" in err
        assert not out.exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["gen", "--badflag"]) == EXIT_USAGE
    assert main(["run", "--in", "/nonexistent/path.jsonl"]) == EXIT_IO
    assert main(["gen", "--variant", "general", "--n", "-3", "--out", "/tmp/x.jsonl"]) == EXIT_VALIDATION
    # Random(-3) seeds as Random(3) does, so a negative seed is refused before any file is written
    assert main(["gen", "--n", "5", "--seed", "-3", "--out", str(tmp_path / "neg.jsonl")]) == EXIT_VALIDATION
    assert "seed must be >= 0" in capsys.readouterr().err and not (tmp_path / "neg.jsonl").exists()
    # a slack past the float range is generated and classified exactly
    assert main(["gen", "--n", "3", "--max-slack", str(10**400), "--out", str(tmp_path / "wide.jsonl")]) == EXIT_OK
    assert "variant flags:" in capsys.readouterr().out
    assert main(["ratio", "--in", "/nonexistent.jsonl"]) == EXIT_IO
    assert main(["chaincheck", "--trials", "0"]) == EXIT_USAGE
    assert main(["chaincheck", "--k-max", "0"]) == EXIT_USAGE
    capsys.readouterr()
    # the policy flags are read before the file, so a bad one is reported and no file is opened
    assert main(["run", "--in", "/nonexistent.jsonl", "--alpha", "nope"]) == EXIT_USAGE
    assert "usage error: bad alpha/beta value: 'nope'" in capsys.readouterr().err
    assert main(["ratio", "--in", "/nonexistent.jsonl", "--policy", "edf", "--alpha", "2", "--beta", "3"]) == EXIT_VALIDATION
    assert "EDF_alpha has beta = 1, got beta=3.0" in capsys.readouterr().err
    for variants in ("all", "general"):  # table1_cells, and one cell per named variant
        assert main(["sweep", "--variants", variants, "--n", "0", "--trials", "1"]) == EXIT_VALIDATION
        assert "validation error: a sweep cell needs n >= 1 packets per trial, got n=0" in capsys.readouterr().err
    for jobs in ("0", "-2"):  # rejected before any cell runs, so stdout stays empty
        assert main(["sweep", "--variants", "general", "--trials", "1", "--jobs", jobs]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f"--jobs must be at least 1, got {jobs}" in captured.err
    for variants in (",", ""):  # names no variant: nothing to run
        assert main(["sweep", "--variants", variants, "--trials", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--variants names no variant" in captured.err
    assert main(["sweep", "--variants", "general,bogus", "--trials", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error: unknown variant 'bogus'" in captured.err
    # an alpha that is no number is a usage error, and a NaN alpha is rejected, never run
    inst = tmp_path / "g.jsonl"
    assert main(["gen", "--n", "10", "--out", str(inst)]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", "--in", str(inst), "--alpha", "nope"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error: bad alpha/beta value: 'nope'" in captured.err
    for args in (
        ["run", "--in", str(inst), "--alpha", "nan"],
        ["run", "--in", str(inst), "--policy", "edf", "--alpha", "nan"],
        ["sweep", "--policy", "mg", "--alpha", "nan", "--beta", "1", "--trials", "1"],
    ):
        capsys.readouterr()
        assert main(args) == EXIT_VALIDATION, args
        assert "alpha must be >= 1, got nan" in capsys.readouterr().err
    assert main(["chaincheck", "--alpha", "nan", "--trials", "1"]) == EXIT_USAGE
    assert "finite alpha > 1" in capsys.readouterr().err
    # a literal past the float range is no way to write inf: it is refused, never run as MG(inf, 1)
    for args in (
        ["run", "--in", str(inst), "--alpha", "1e400"],
        ["run", "--in", str(inst), "--alpha=-1e400"],
        ["ratio", "--in", str(inst), "--alpha", "2", "--beta", "1e999"],
        ["sweep", "--policy", "mg", "--alpha", "1e400", "--trials", "1"],
    ):
        assert main(args) == EXIT_USAGE, args
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: bad alpha/beta value" in captured.err, args
    assert main(["run", "--in", str(inst), "--alpha", "inf"]) == EXIT_OK
    assert "policy mg(alpha=inf, beta=1.0)" in capsys.readouterr().out
    # phi^(k+1) is past the float range: no epsilon fits, and nothing is written
    out = tmp_path / "lb.jsonl"
    assert main(["lb", "--k", "1500", "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error: epsilon must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_run_reads_a_file_as_loads_instance_reads_its_text(tmp_path, capsys):
    # A bare CR is JSON whitespace, so it splits no line; a CRLF file reads as
    # its LF twin; a file with CR-only line endings is one line, and so invalid.
    from mgsched.model import loads_instance

    packets = (
        '{"id": 0, "release": 1, "deadline": 2, "value": 1.0}',
        '{"id": 1, "release": 1, "deadline": 3, "value": 2.0}',
    )
    for name, text, sent in (
        ("cr.jsonl", '{"id": 0,\r "release": 1, "deadline": 2, "value": 1.0}\n', 1),
        ("crlf.jsonl", '{"meta": {"seed": 1}}\r\n' + "\r\n".join(packets) + "\r\n", 2),
        ("cr-only.jsonl", "\r".join(packets) + "\r", None),
    ):
        path = tmp_path / name
        path.write_bytes(text.encode())
        capsys.readouterr()
        if sent is None:
            with pytest.raises(ValueError):
                loads_instance(text)
            assert main(["run", "--in", str(path)]) == EXIT_VALIDATION, name
        else:
            assert len(loads_instance(text)) == sent
            assert main(["run", "--in", str(path)]) == EXIT_OK, name
            assert f"sent {sent} dropped 0" in capsys.readouterr().out, name


def test_validation_exit_on_bad_instance_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 0, "release": 1, "deadline": 0, "value": 1.0}\n')
    assert main(["run", "--in", str(bad)]) == EXIT_VALIDATION
    # rejected by the loader, never truncated or coerced; the message names the line
    good = '{"id": 0, "release": 1, "deadline": 3, "value": 1.0}\n'
    for line, expect in (
        ('{"id": 1, "release": 1, "value": 1.0}', "missing field 'deadline'"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": 1.0, "color": "red"}', "unknown field 'color'"),
        ("[1, 2]", "JSON object"),
        ('{"id": 1, "release": 1.7, "deadline": 3, "value": 1.0}', "release must be an integer"),
        ('{"id": 1, "release": 1, "deadline": 3.5, "value": 1.0}', "deadline must be an integer or null"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": true}', "value must be a number"),
        ('{"id": 1, "release": "2", "deadline": 3, "value": 1.0}', "release must be an integer"),
        ('{"id": "1", "release": 1, "deadline": 3, "value": 1.0}', "id must be an integer"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": "2"}', "value must be a number"),
        ("{not json", "line 2"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": 1.0} 5', "Extra data"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": 1.0}{"id": 2, "release": 1, "deadline": 3, "value": 1.0}',
         "Extra data"),
        ('{"meta": 5}', "meta must be a JSON object"),
        ('{"meta": {"seed": 1}}', "a meta line may come only once, before every packet"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": 1' + "0" * 400 + "}", "within the float range"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": 9007199254740993}', "value must be a float exactly"),
        # json.loads would keep the last of two equal keys: packet 5, meta {"b": 2}
        ('{"id": 0, "id": 5, "release": 1, "deadline": 3, "value": 1.0}', "duplicate key 'id'"),
        ('{"id": 1, "release": 1, "deadline": 3, "value": "a:b", "value": 1.0}', "duplicate key 'value'"),
        ('{"meta": {"a": 1}, "meta": {"b": 2}}', "duplicate key 'meta'"),
        ('{"meta": {"a": 1, "a": 2}}', "duplicate key 'a'"),
    ):
        bad.write_text(good + line + "\n")
        capsys.readouterr()
        for command in ("run", "opt", "ratio"):
            assert main([command, "--in", str(bad)]) == EXIT_VALIDATION, line
            err = capsys.readouterr().err
            assert "line 2" in err and expect in err, err
    # each value is finite, but their sum is not a float
    bad.write_text('{"id": 0, "release": 1, "deadline": 3, "value": 1e308}\n'
                   '{"id": 1, "release": 1, "deadline": 3, "value": 1e308}\n')
    for command in ("run", "opt", "ratio"):
        assert main([command, "--in", str(bad)]) == EXIT_VALIDATION, command
        err = capsys.readouterr().err
        assert "validation error" in err and "value-sum-overflow" in err, err


def test_deeply_nested_json_is_a_validation_error(tmp_path, capsys):
    # The decoder recurses once per level, so a line nested past the
    # interpreter's depth must end in exit 3 and name its line, not a traceback.
    good = '{"id": 0, "release": 1, "deadline": 3, "value": 1.0}\n'
    depth = 200_000
    bad = tmp_path / "deep.jsonl"
    for text, lineno in (
        (good + "[" * depth + "]" * depth + "\n", 2),
        ('{"meta": ' + '{"a": ' * depth + "1" + "}" * depth + "}\n" + good, 1),
    ):
        bad.write_text(text)
        for command in ("run", "opt", "ratio"):
            capsys.readouterr()
            assert main([command, "--in", str(bad)]) == EXIT_VALIDATION, (command, lineno)
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert captured.err == f"validation error: line {lineno}: JSON nested too deeply to read\n", captured.err


def test_sweep_rejects_zero_trials(capsys):
    assert main(["sweep", "--trials", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials" in captured.err
