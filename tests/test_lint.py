"""Tests for the static IR linter (:mod:`repro.lint`).

Acceptance contract:

* every seeded structural defect (combinational loop, double driver,
  post-construction width corruption, inferred latch, connectivity
  holes, X-source array reads) is detected with the right check id,
  severity and signal path;
* the three shipped case studies lint clean of unwaived findings
  (the one intentional base-IP finding -- plasma's ``alu_trace`` tap
  register -- is covered by its shipped waiver file);
* waiver mechanics: pattern matching, report splitting, file-format
  validation;
* the pre-campaign lint gate in :func:`repro.flow.run_flow` attaches
  the (waived) report to the flow result and raises
  :class:`repro.lint.LintGateError` on error findings;
* the determinism lint tool (``tools/lint_determinism.py``) flags the
  forbidden constructs, honours its pragma, and reports the shipped
  worker-side modules clean.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.lint import (
    CHECKS,
    LintFinding,
    LintGateError,
    Waiver,
    apply_waivers,
    lint_module,
    load_waiver_file,
    waivers_for_ip,
)
from repro.rtl import (
    Assign,
    If,
    Module,
    NativeProcess,
    Signal,
    WidthError,
    const,
)
from repro.rtl.ir import Array, ArrayRead

REPO_ROOT = Path(__file__).resolve().parent.parent


def _findings(report, check):
    return [f for f in report.findings if f.check == check]


class TestSeededDefects:
    def test_comb_loop_detected(self):
        m = Module("loopy")
        a = m.signal("a", 4)
        b = m.signal("b", 4)
        m.comb("c1", [Assign(a, b)])
        m.comb("c2", [Assign(b, a)])
        found = _findings(lint_module(m), "comb-loop")
        assert len(found) == 1
        f = found[0]
        assert f.severity == "error"
        assert "loopy.a" in f.signal and "loopy.b" in f.signal
        assert "c1" in f.process and "c2" in f.process

    def test_comb_self_loop_detected(self):
        m = Module("selfloop")
        a = m.signal("a", 4)
        m.comb("c", [Assign(a, a + const(1, 4))])
        found = _findings(lint_module(m), "comb-loop")
        assert len(found) == 1
        assert found[0].signal == "selfloop.a"

    def test_sync_feedback_is_not_a_loop(self):
        # A register feeding itself through a clock edge is the normal
        # shape of sequential logic, not a combinational cycle.
        m = Module("reg")
        clk = m.input("clk")
        q = m.signal("q", 4)
        m.sync("p", clk, [Assign(q, q + const(1, 4))])
        assert not _findings(lint_module(m), "comb-loop")

    def test_double_driver_detected(self):
        m = Module("dd")
        clk = m.input("clk")
        q = m.output("q", 4)
        m.sync("p1", clk, [Assign(q, const(1, 4))])
        m.sync("p2", clk, [Assign(q, const(2, 4))])
        found = _findings(lint_module(m), "multi-driver")
        assert len(found) == 1
        f = found[0]
        assert f.severity == "error"
        assert f.signal == "dd.q"
        assert "p1" in f.process and "p2" in f.process

    def test_sensor_restore_multi_driver_is_info(self):
        # The Razor recovery path intentionally re-drives a monitored
        # register from its native bank: reported, but not an error.
        m = Module("razorish")
        clk = m.input("clk")
        q = m.signal("q", 4)
        m.sync("p", clk, [Assign(q, const(1, 4))])
        m.native(NativeProcess(
            "bank", "sync", lambda ctx: None,
            clock=clk, reads=[q], writes=[q],
            meta={"sensor": "razor"},
        ))
        found = _findings(lint_module(m), "multi-driver")
        assert len(found) == 1
        assert found[0].severity == "info"
        assert "sensor recovery" in found[0].message

    def test_width_mismatch_detected(self):
        # Constructors validate widths, so corruption only enters via
        # post-construction rewrites -- exactly what a buggy
        # retargeting pass would do.
        m = Module("wm")
        clk = m.input("clk")
        wide = m.signal("wide", 8)
        narrow = m.signal("narrow", 4)
        stmt = Assign(wide, const(0, 8))
        m.sync("p", clk, [stmt])
        stmt.target = narrow  # simulate the broken rewrite
        found = _findings(lint_module(m), "width-mismatch")
        assert len(found) == 1
        f = found[0]
        assert f.severity == "error"
        assert f.signal == "wm.narrow"
        assert f.process == "p"

    def test_inferred_latch_detected(self):
        m = Module("latchy")
        sel = m.input("sel")
        q = m.signal("q", 4)
        m.comb("c", [If(sel, [Assign(q, const(1, 4))])])
        found = _findings(lint_module(m), "inferred-latch")
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert found[0].signal == "latchy.q"

    def test_complete_if_else_is_not_a_latch(self):
        m = Module("mux")
        sel = m.input("sel")
        q = m.signal("q", 4)
        m.comb("c", [If(
            sel, [Assign(q, const(1, 4))], [Assign(q, const(2, 4))]
        )])
        assert not _findings(lint_module(m), "inferred-latch")

    def test_never_written_detected(self):
        m = Module("floaty")
        clk = m.input("clk")
        ghost = m.signal("ghost", 4)
        q = m.output("q", 4)
        m.sync("p", clk, [Assign(q, ghost)])
        found = _findings(lint_module(m), "never-written")
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert found[0].signal == "floaty.ghost"

    def test_never_read_detected(self):
        m = Module("dead")
        clk = m.input("clk")
        q = m.signal("q", 4)
        m.sync("p", clk, [Assign(q, const(1, 4))])
        found = _findings(lint_module(m), "never-read")
        assert len(found) == 1
        assert found[0].severity == "info"
        assert found[0].signal == "dead.q"

    def test_x_source_detected(self):
        m = Module("xs")
        clk = m.input("clk")
        arr = m.array("mem", 6, 8)     # depth 6, 3-bit index spans 8
        idx = m.signal("idx", 3)
        q = m.output("q", 8)
        m.sync("p", clk, [Assign(q, ArrayRead(arr, idx))])
        found = _findings(lint_module(m), "x-source")
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert found[0].signal == "xs.mem"

    def test_power_of_two_array_is_clean(self):
        m = Module("p2")
        clk = m.input("clk")
        arr = m.array("mem", 8, 8)
        idx = m.signal("idx", 3)
        q = m.output("q", 8)
        m.sync("p", clk, [Assign(q, ArrayRead(arr, idx))])
        assert not _findings(lint_module(m), "x-source")

    def test_check_catalog_is_exact(self):
        assert set(CHECKS) == {
            "comb-loop", "multi-driver", "width-mismatch",
            "inferred-latch", "never-written", "never-read", "x-source",
        }


class TestShippedIpsClean:
    @pytest.mark.parametrize("ip", sorted(CASE_STUDIES))
    def test_base_ip_lints_clean_after_waivers(self, ip):
        spec = case_study(ip)
        module, _clk = spec.factory()
        report = apply_waivers(lint_module(module), waivers_for_ip(ip))
        assert report.ok
        assert not report.findings, [
            f.one_line() for f in report.findings
        ]

    def test_plasma_alu_trace_waiver_pinned(self):
        # The one genuine base-IP finding: plasma's alu_trace is a
        # sensor tap register with no functional reader, waived with a
        # reason in the shipped waiver file.  This pin ensures neither
        # the finding nor its waiver silently disappears.
        spec = case_study("plasma")
        module, _clk = spec.factory()
        raw = lint_module(module)
        assert [f.signal for f in raw.findings] == ["plasma_ip.alu_trace"]
        waived = apply_waivers(raw, waivers_for_ip("plasma"))
        assert not waived.findings
        (finding, waiver), = waived.waived
        assert finding.check == "never-read"
        assert waiver.reason

    @pytest.mark.parametrize("sensor", ["razor", "counter"])
    def test_augmented_plasma_has_no_errors(self, sensor):
        from repro.flow import build_augmented

        module = build_augmented(
            case_study("plasma"), sensor
        ).augmented.module
        report = lint_module(module)
        assert report.ok, [f.one_line() for f in report.errors()]


class TestWaivers:
    def test_waiver_pattern_matching(self):
        f = LintFinding("never-read", "info", "dead", signal="m.q",
                        process="m.p")
        assert Waiver(check="never-read").matches(f)
        assert Waiver(signal="m.*").matches(f)
        assert not Waiver(check="comb-loop").matches(f)
        assert not Waiver(signal="other.*").matches(f)

    def test_apply_waivers_splits_report(self):
        m = Module("dead")
        clk = m.input("clk")
        q = m.signal("q", 4)
        m.sync("p", clk, [Assign(q, const(1, 4))])
        raw = lint_module(m)
        waived = apply_waivers(
            raw, [Waiver(check="never-read", reason="test")]
        )
        assert not waived.findings
        assert len(waived.waived) == 1
        # The input report is untouched.
        assert len(raw.findings) == 1

    def test_waiver_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"check": "x", "bogus": 1}]))
        with pytest.raises(ValueError, match="unknown keys"):
            load_waiver_file(path)

    def test_waiver_file_must_be_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"check": "x"}))
        with pytest.raises(ValueError, match="JSON list"):
            load_waiver_file(path)

    def test_unknown_ip_has_no_waivers(self):
        assert waivers_for_ip("no-such-ip") == []

    def test_severity_validated(self):
        with pytest.raises(ValueError):
            LintFinding("x", "fatal", "boom")


class TestFlowGate:
    def test_flow_attaches_waived_lint_report(self):
        result = run_flow(
            case_study("dsp"), "razor", run_mutation=False
        )
        assert result.lint_report is not None
        assert result.lint_report.ok

    def test_gate_error_carries_report(self):
        m = Module("dd")
        clk = m.input("clk")
        q = m.output("q", 4)
        m.sync("p1", clk, [Assign(q, const(1, 4))])
        m.sync("p2", clk, [Assign(q, const(2, 4))])
        report = lint_module(m)
        with pytest.raises(LintGateError) as excinfo:
            raise LintGateError(report)
        assert excinfo.value.report is report
        assert "multi-driver" in str(excinfo.value)


def _load_det_lint():
    path = REPO_ROOT / "tools" / "lint_determinism.py"
    spec = importlib.util.spec_from_file_location(
        "lint_determinism", path
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestDeterminismLint:
    def test_forbidden_constructs_flagged(self):
        det = _load_det_lint()
        source = (
            "import time, random, os, uuid\n"
            "stamp = time.time()\n"
            "pick = random.choice([1, 2])\n"
            "key = uuid.uuid4()\n"
            "salt = os.urandom(8)\n"
            "for item in {1, 2, 3}:\n"
            "    print(item)\n"
            "order = [x for x in set([3, 1])]\n"
        )
        problems = {
            f["line"]: f["problem"]
            for f in det.scan_source(source, "bad.py")
        }
        assert set(problems) == {2, 3, 4, 5, 6, 8}
        assert "time.time" in problems[2]
        assert "random.choice" in problems[3]
        assert "set" in problems[6]

    def test_pragma_suppresses(self):
        det = _load_det_lint()
        source = (
            "import time\n"
            "stamp = time.time()  # det-lint: allow metadata only\n"
        )
        assert det.scan_source(source, "ok.py") == []

    def test_seeded_random_and_perf_counter_allowed(self):
        det = _load_det_lint()
        source = (
            "import random, time\n"
            "rng = random.Random(7)\n"
            "v = rng.random()\n"
            "t0 = time.perf_counter()\n"
            "for x in sorted({1, 2}):\n"
            "    print(x)\n"
        )
        assert det.scan_source(source, "ok.py") == []

    def test_shipped_worker_modules_are_clean(self):
        det = _load_det_lint()
        targets = [REPO_ROOT / t for t in det.DEFAULT_TARGETS]
        assert det.scan_paths(targets) == []

    def test_wall_clock_boundary_waives_only_wall_clock(self):
        # A module whose header declares the boundary may read
        # time.time / time.time_ns without per-line pragmas ...
        det = _load_det_lint()
        source = (
            '"""Sanctioned boundary.\n'
            "\n"
            "det-lint: wall-clock-boundary\n"
            '"""\n'
            "import time, uuid\n"
            "stamp = time.time()\n"
            "stamp_ns = time.time_ns()\n"
            "key = uuid.uuid4()\n"
        )
        problems = det.scan_source(source, "boundary.py")
        # ... but every other rule still applies.
        assert [f["line"] for f in problems] == [8]
        assert "uuid" in problems[0]["problem"]

    def test_boundary_declaration_must_be_in_the_header(self):
        det = _load_det_lint()
        filler = "x = 1\n" * det.BOUNDARY_HEADER_LINES
        source = (
            filler +
            "# det-lint: wall-clock-boundary\n"
            "import time\n"
            "stamp = time.time()\n"
        )
        problems = det.scan_source(source, "late.py")
        assert len(problems) == 1
        assert "time.time" in problems[0]["problem"]

    def test_obs_clock_is_the_only_boundary_and_no_pragmas_remain(self):
        # The PR-10 audit: the two historical `det-lint: allow`
        # pragmas (result-cache timestamps) were replaced by the
        # repro.obs.clock boundary -- shipped worker-side code should
        # carry no blanket pragmas at all now.
        det = _load_det_lint()
        boundaries = []
        pragma_lines = []
        for target in det.DEFAULT_TARGETS:
            root = REPO_ROOT / target
            files = sorted(root.rglob("*.py")) if root.is_dir() \
                else [root]
            for path in files:
                lines = path.read_text().splitlines()
                header = lines[:det.BOUNDARY_HEADER_LINES]
                if any(det.WALL_CLOCK_BOUNDARY in ln for ln in header):
                    boundaries.append(path.relative_to(REPO_ROOT))
                pragma_lines += [
                    f"{path.relative_to(REPO_ROOT)}:{i}"
                    for i, ln in enumerate(lines, 1)
                    if det.PRAGMA in ln
                ]
        assert [str(p) for p in boundaries] == \
            ["src/repro/obs/clock.py"]
        assert pragma_lines == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        det = _load_det_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        assert det.main([str(bad)]) == 1
        capsys.readouterr()
        assert det.main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["line"] == 2
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert det.main([str(good)]) == 0
        assert det.main([str(tmp_path / "missing.py")]) == 2
