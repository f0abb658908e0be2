"""Tests for the VCD exporter and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs import validate_chrome_trace
from repro.rtl import Assign, Module, Simulation, const
from repro.rtl.vcd import VcdWriter

REPO = Path(__file__).resolve().parent.parent


def counter_module():
    m = Module("vcd_dut")
    clk = m.input("clk")
    q = m.output("q", 4)
    m.sync("p", clk, [Assign(q, q + const(1, 4))])
    return m, clk, q


class TestVcd:
    def test_writes_valid_header_and_changes(self, tmp_path):
        m, clk, q = counter_module()
        sim = Simulation(m, {clk: 1000})
        path = str(tmp_path / "wave.vcd")
        with VcdWriter(sim, path, [clk, q]) as vcd:
            sim.run_cycles(5)
        text = open(path).read()
        assert "$timescale 1ps $end" in text
        assert "$var reg 4" in text and " q $end" in text
        assert "$dumpvars" in text
        assert "#1000" in text  # first rising edge timestamp
        assert vcd.changes_written > 10  # clock toggles + counter

    def test_multibit_values_binary(self, tmp_path):
        m, clk, q = counter_module()
        sim = Simulation(m, {clk: 1000})
        path = str(tmp_path / "wave.vcd")
        with VcdWriter(sim, path, [q]):
            sim.run_cycles(3)
        lines = [l for l in open(path) if l.startswith("b")]
        assert any(l.startswith("b0011 ") for l in lines)  # q == 3

    def test_x_states_rendered(self, tmp_path):
        m = Module("xdut")
        clk = m.input("clk")
        q = m.output("q", 2)
        m.sync("p", clk, [Assign(q, q + const(1, 2))])
        sim = Simulation(m, {clk: 1000}, init_unknown=True)
        path = str(tmp_path / "x.vcd")
        with VcdWriter(sim, path, [q]):
            sim.run_cycles(1)
        assert "bxx" in open(path).read()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "plasma" in out and "filter" in out

    def test_emit_vhdl(self, capsys):
        assert cli_main(["emit", "filter", "vhdl"]) == 0
        out = capsys.readouterr().out
        assert "entity filter_ip is" in out

    def test_emit_tlm_with_sensor(self, capsys):
        assert cli_main(
            ["emit", "dsp", "tlm", "--sensor", "razor"]
        ) == 0
        out = capsys.readouterr().out
        assert "def scheduler(self):" in out
        assert "Razor bank" in out

    @pytest.mark.parametrize("ip", ["plasma", "dsp", "filter"])
    def test_emit_counter_design_is_the_flows(self, ip, capsys):
        """``emit --sensor counter`` prints the design every flow,
        campaign and RTL validation uses: CPS taps calibrated on the
        IP's testbench (uncalibrated, every tap samples bit 0)."""
        from repro.abstraction import generate_tlm
        from repro.flow import build_augmented
        from repro.ips import case_study
        from repro.rtl import emit_vhdl

        augmented = build_augmented(case_study(ip), "counter").augmented
        assert cli_main(["emit", ip, "vhdl", "--sensor", "counter"]) == 0
        assert capsys.readouterr().out == \
            emit_vhdl(augmented.module) + "\n"
        assert cli_main(["emit", ip, "tlm", "--sensor", "counter"]) == 0
        tlm = generate_tlm(augmented.module, variant="hdtlib",
                           augmented=augmented)
        assert capsys.readouterr().out == tlm.source + "\n"

    def test_bench_time_column_names_what_it_measures(self, capsys):
        """Campaigns share one queue, so a campaign's time runs from its
        preparation to its last shard and includes queue wait; both
        tables say so in the header."""
        assert cli_main(
            ["bench", "--ips", "dsp", "--cycles", "24", "--rtl-validation",
             "--workers", "1", "--no-progress"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("| prepare-to-done (s)") == 2
        assert "time (s)" not in out

    def test_bad_ip_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["flow", "nonexistent", "razor"])


def _repro(*argv):
    """``python -m repro ARGV`` in a fresh interpreter: ``mutate
    --trace`` enables the process-global tracer and leaves it on."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )


class TestCliEndToEnd:
    def test_flow_exits_zero(self):
        result = _repro("flow", "dsp", "razor")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "killed" in result.stdout

    def test_mutate_writes_a_valid_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        result = _repro("mutate", "dsp", "razor", "--workers", "2",
                        "--trace", str(path))
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        assert any(e["name"] == "flow.mutation" for e in events)
        assert any(e["name"] == "shard.execute"
                   and e["args"].get("level") == "tlm" for e in events)
