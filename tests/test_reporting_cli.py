import json

import numpy as np
import pytest

from roundfair import (
    GREEDY,
    RunRecord,
    audit,
    emit_report,
    emit_table,
    parse_allocation,
    parse_instance,
    parse_instance_document,
    run_guarded,
    serialize_allocation,
    serialize_instance,
    two_round_instance,
    validate_allocation,
)
from roundfair.cli import main
from roundfair.errors import InstanceSyntaxError, NegativeValue
from conftest import random_instance

LB_DOC = """\
# name: lb-branch-1
2 2
0.568 0.427
0.432 0.573
"""

UNNORMALIZED_DOC = """\
2 2
0.05 0.05
0.05 0.05
"""


class TestParsing:
    def test_lower_bound_document(self):
        inst, meta = parse_instance_document(LB_DOC)
        assert meta["name"] == "lb-branch-1"
        assert inst.values[0].tolist() == [0.568, 0.427]
        assert inst.normalized

    def test_empty_document(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("")

    def test_negative_entry_forwarded(self):
        with pytest.raises(NegativeValue):
            parse_instance("2 1\n-0.5 1.5\n")

    def test_bad_header(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance("two agents\n")
        assert err.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance("2 2\n0.5 0.5\n0.5\n")
        assert err.value.line == 3

    def test_missing_rows(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("2 3\n0.5 0.5\n0.5 0.5\n")

    def test_non_numeric(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("2 1\n0.5 abc\n")

    def test_allocation_document(self):
        alloc = parse_allocation("2 2\n0.5 0.5\n1 0\n")
        assert alloc.fractions[1].tolist() == [1.0, 0.0]

    def test_comments_allowed_between_rows(self):
        inst = parse_instance("2 2\n0.5 0.3\n# halfway note\n0.5 0.7\n")
        assert inst.values[1].tolist() == [0.5, 0.7]

    def test_too_many_rows(self):
        with pytest.raises(InstanceSyntaxError) as err:
            parse_instance("2 1\n0.5 0.5\n0.5 0.5\n")
        assert err.value.line == 3


class TestRoundTrip:
    def test_serialize_parse_identity(self, rng):
        for _ in range(25):
            inst = random_instance(rng, n=3, max_rounds=6)
            again = parse_instance(serialize_instance(inst))
            assert np.array_equal(again.values, inst.values)

    def test_metadata_round_trip(self):
        inst = two_round_instance(0.599, 0.599)
        doc = serialize_instance(inst, name="sweet-spot", source="generator")
        again, meta = parse_instance_document(doc)
        assert np.array_equal(again.values, inst.values)
        assert meta == {"name": "sweet-spot", "source": "generator"}

    def test_allocation_round_trip(self):
        alloc = validate_allocation([[0.1234567890123, 0.5], [0.0, 1.0]])
        again = parse_allocation(serialize_allocation(alloc))
        assert np.array_equal(again.fractions, alloc.fractions)


def _sweet_spot_record():
    inst = two_round_instance(0.599, 0.599)
    trace = run_guarded(inst, 2.7)
    verdict = audit(inst, trace.allocation)
    return RunRecord(
        algorithm="guarded-2.7",
        p=2.7,
        instance_name="two-round-symmetric:0.599",
        verdict=verdict,
        critical_event=trace.critical_event,
    )


class TestEmitReport:
    def test_header_line(self):
        assert emit_report([], "csv") == (
            "algorithm,p,instance_name,sw,opt,ratio,fair_share,envy_free,"
            "critical_round,critical_fraction\n"
        )

    def test_empty_json(self):
        assert json.loads(emit_report([], "json")) == []

    def test_sweet_spot_row(self):
        record = _sweet_spot_record()
        text = emit_report([record], "csv")
        header, row = text.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["algorithm"] == "guarded-2.7"
        assert float(cells["ratio"]) == pytest.approx(0.9164, abs=5e-4)
        assert cells["fair_share"] == "true"
        assert cells["critical_round"] == ""  # no trip on this instance
        # numbers carry exactly 12 significant digits
        assert cells["ratio"] == f"{record.verdict.ratio:.12g}"
        assert cells["sw"] == f"{record.verdict.social_welfare:.12g}"

    def test_json_row_fields(self):
        rows = json.loads(emit_report([_sweet_spot_record()], "json"))
        assert rows[0]["p"] == 2.7
        assert rows[0]["envy_free"] is True
        assert rows[0]["critical_fraction"] is None

    def test_deterministic(self):
        records = [_sweet_spot_record()]
        assert emit_report(records, "csv") == emit_report(records, "csv")
        assert emit_report(records, "json") == emit_report(records, "json")

    def test_infinite_p_renders(self):
        record = RunRecord(
            algorithm="greedy",
            p=GREEDY,
            instance_name="x",
            verdict=_sweet_spot_record().verdict,
        )
        for format, text in (("csv", ",inf,"), ("json", '"p": "inf"')):
            assert text in emit_report([record], format)


class TestEmitTable:
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_numpy_scalars_render_as_builtins(self, format):
        # Rows built from numpy reductions hold numpy scalars, which json
        # cannot encode and csv would print as True; each must render as the
        # builtin it stands for.
        columns = ("flag", "count", "value", "single")
        numpy_row = (np.bool_(True), np.int64(3), np.float64(0.1), np.float32(0.5))
        expected = emit_table(columns, [(True, 3, 0.1, 0.5)], format)
        assert emit_table(columns, [numpy_row], format) == expected


class TestCli:
    def test_run_generator(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "guarded",
                "--p", "2.7",
                "--instance", "two-round-symmetric:0.599",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("algorithm,p,")
        assert "guarded-2.7" in out

    @pytest.mark.parametrize("name", ["poly", "guarded"])
    def test_run_negative_zero_p_prints_zero(self, name, capsys):
        # -0.0 was once kept, so the row read `poly--0,-0`.
        spec = "two-round-symmetric:0.599"
        assert main(["run", "--algorithm", name, "--p", "-0.0", "--instance", spec]) == 0
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[:2] == [f"{name}-0", "0"]

    def test_run_lb_pair_emits_two_rows(self, capsys):
        code = main(["run", "--algorithm", "proportional", "--instance", "lb-pair"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 3
        assert "lb-1" in out[1] and "lb-2" in out[2]

    @pytest.mark.parametrize("spec", ["lb-pair:3", "lb-pair:"])
    def test_run_lb_pair_rejects_an_argument(self, spec, capsys):
        assert main(["run", "--algorithm", "proportional", "--instance", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lb-pair takes no arguments" in captured.err

    def test_run_fs_violation_generator(self, capsys):
        code = main(
            ["run", "--algorithm", "poly", "--p", "3", "--instance", "fs-violation:3"]
        )
        assert code == 0
        assert ",false," in capsys.readouterr().out  # fair-share fails

    def test_run_multi_agent_generator(self, capsys):
        code = main(
            ["run", "--algorithm", "proportional", "--instance", "multi-agent:4"]
        )
        assert code == 0

    def test_run_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text(LB_DOC)
        code = main(["run", "--algorithm", "quadratic", "--instance", str(path)])
        assert code == 0
        assert "lb-branch-1" in capsys.readouterr().out

    def test_run_bad_algorithm_exits_2(self, capsys):
        assert main(["run", "--algorithm", "nope", "--instance", "lb-pair"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_guarded_on_many_agents_exits_2(self, capsys):
        code = main(
            ["run", "--algorithm", "guarded", "--p", "2", "--instance", "multi-agent:4"]
        )
        assert code == 2
        assert "2 agents" in capsys.readouterr().err

    def test_run_missing_file_exits_2(self, capsys):
        assert (
            main(["run", "--algorithm", "greedy", "--instance", "/no/such/file"]) == 2
        )

    def test_verify_clean_allocation(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(LB_DOC)
        alloc_path = tmp_path / "alloc.txt"
        alloc_path.write_text("2 2\n0.5 0.5\n0.5 0.5\n")
        code = main(
            ["verify", "--instance", str(inst_path), "--allocation", str(alloc_path)]
        )
        assert code == 0
        assert ",true," in capsys.readouterr().out

    def test_verify_violation_exits_3(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(LB_DOC)
        alloc_path = tmp_path / "alloc.txt"
        alloc_path.write_text("2 2\n1 0\n1 0\n")  # starves agent 2
        code = main(
            ["verify", "--instance", str(inst_path), "--allocation", str(alloc_path)]
        )
        assert code == 3

    def test_verify_nan_allocation_exits_2(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text("2 2\n0.5 0.5\n0.5 0.5\n")
        alloc_path = tmp_path / "alloc.txt"
        alloc_path.write_text("2 2\nnan 0.5\n0.5 0.5\n")
        code = main(
            ["verify", "--instance", str(inst_path), "--allocation", str(alloc_path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_verify_parse_error_exits_2(self, tmp_path):
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text("garbage\n")
        alloc_path = tmp_path / "alloc.txt"
        alloc_path.write_text("2 1\n0.5 0.5\n")
        assert (
            main(
                ["verify", "--instance", str(inst_path), "--allocation", str(alloc_path)]
            )
            == 2
        )

    def test_verify_unnormalized_equal_split_is_fair(self, tmp_path, capsys):
        # Each agent's own total is 0.1, so half of it is her fair share.
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(UNNORMALIZED_DOC)
        alloc_path = tmp_path / "alloc.txt"
        alloc_path.write_text("2 2\n0.5 0.5\n0.5 0.5\n")
        code = main(
            ["verify", "--instance", str(inst_path), "--allocation", str(alloc_path)]
        )
        assert code == 0
        assert ",true,true,,\n" in capsys.readouterr().out

    def test_run_unnormalized_equal_split_is_fair(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text(UNNORMALIZED_DOC)
        code = main(["run", "--algorithm", "equal-split", "--instance", str(path),
                     "--format", "json"])
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["fair_share"] is True and row["envy_free"] is True

    def test_doomsday_unnormalized_equal_split(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text(UNNORMALIZED_DOC)
        code = main(["doomsday", "--instance", str(path), "--algorithm", "equal-split"])
        assert code == 0
        assert capsys.readouterr().out == "round,compatible\n0,true\n1,true\n"

    def test_sweep_rows_in_order(self, capsys):
        code = main(["sweep", "--p-values", "2,2.7", "--grid-step", "0.005"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p,no_cp_alpha,with_cp_alpha"
        assert lines[1].startswith("2,") and lines[2].startswith("2.7,")
        assert lines[1].endswith(",")  # no trip family at p = 2

    def test_search_json(self, capsys):
        code = main(
            [
                "search",
                "--objective", "proportional",
                "--grid-step", "0.005",
                "--format", "json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value"] == pytest.approx(0.828427, abs=1e-4)

    def test_search_unknown_objective_exits_2(self):
        assert main(["search", "--objective", "mystery"]) == 2

    def test_search_guarded_cp1(self, capsys):
        code = main(["search", "--objective", "guarded-cp1", "--p", "2.7"])
        assert code == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(0.916945, abs=1e-5)

    def test_search_guarded_cp1_just_above_two(self, capsys):
        # The ceiling at p = 2.0001 is about 1 + 1e-4: a box the grid can scan.
        code = main(["search", "--objective", "guarded-cp1", "--p", "2.0001"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("guarded-cp1,2.0001,")

    def test_sweep_just_above_two_has_a_trip_row(self, capsys):
        code = main(["sweep", "--p-values", "2.0001", "--grid-step", "0.005"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "2.0001" and float(row[2]) > 0.99

    @pytest.mark.parametrize(
        "objective", ["guarded-cp1", "guarded-cp2-mixed", "guarded-cp2-both-above"]
    )
    def test_search_trip_family_at_p_2_000001(self, capsys, objective):
        # The box is narrower than two margins; the search keeps its middle half.
        code = main(["search", "--objective", objective, "--p", "2.000001"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"{objective},2.000001,")

    def test_sweep_at_p_2_000001_has_a_trip_row(self, capsys):
        code = main(["sweep", "--p-values", "2.000001", "--grid-step", "0.005"])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "2.000001" and float(row[2]) > 0.99

    @pytest.mark.parametrize("p_values", ["", ",", " , "])
    def test_sweep_without_exponents_exits_2(self, capsys, p_values):
        assert main(["sweep", "--p-values", p_values]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--p-values" in captured.err

    def test_sweep_grid_too_fine_exits_2(self, capsys):
        assert main(["sweep", "--p-values", "2.7", "--grid-step", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid_step 1e-300 asks for more than" in captured.err

    def test_search_objective_missing_p_exits_2(self):
        assert main(["search", "--objective", "guarded-cp1"]) == 2

    def test_search_guarded_cp1_at_p_5000(self, capsys):
        # lambda1**p overflows a float past lambda1 = 1.15; the closed form
        # raises only lambda1**-p, and the ratio tends to 2/3 as p grows.
        code = main(["search", "--objective", "guarded-cp1", "--p", "5000"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.splitlines()[1] == "guarded-cp1,5000,1.00162351969,0.667274614888,1370,true"

    @pytest.mark.parametrize("objective", ["poly-two-round", "poly-two-round-diagonal"])
    def test_search_underflowing_p_exits_0(self, capsys, objective):
        # Both unscaled powers of a denominator underflow on part of the
        # domain; the scaled quotient keeps its value there.
        code = main(["search", "--objective", objective, "--p", "5000", "--grid-step", "0.02"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.splitlines()[1].startswith(f"{objective},5000,")

    def test_search_grid_too_fine_exits_2(self, capsys):
        args = ["search", "--objective", "guarded-cp1", "--p", "2.7", "--grid-step", "1e-300"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("roundfair: error: grid_step 1e-300 ")

    def test_replay_lb(self, capsys):
        code = main(["replay-lb", "--algorithm", "greedy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true" in out  # fair_share_violated

    def test_doomsday(self, capsys):
        code = main(
            [
                "doomsday",
                "--instance", "fs-violation:3",
                "--algorithm", "poly",
                "--p", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "round,compatible"
        assert {line.split(",")[1] for line in lines[1:]} <= {"true", "false"}
        assert any(line.endswith("false") for line in lines[1:])

    def test_doomsday_json(self, capsys):
        code = main(
            [
                "doomsday",
                "--instance", "two-round-symmetric:0.6",
                "--algorithm", "equal-split",
                "--format", "json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["compatible"] for row in rows] == [True, True]

    def test_doomsday_rejects_pair(self, capsys):
        assert (
            main(["doomsday", "--instance", "lb-pair", "--algorithm", "greedy"]) == 2
        )

    def test_cli_reports_are_deterministic(self, capsys):
        args = ["run", "--algorithm", "guarded", "--p", "2.7",
                "--instance", "three-round-cp:0.76,0.97,1e-6"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_cli_sweep_is_deterministic(self, capsys):
        args = ["sweep", "--p-values", "2.6,2.8", "--grid-step", "0.004"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
