"""Tests for the repro-aes command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestTables:
    def test_table2(self, capsys):
        code, out = run_cli(capsys, "tables", "2")
        assert code == 0
        assert "2114" in out and "Cyclone" in out

    def test_all_tables(self, capsys):
        code, out = run_cli(capsys, "tables")
        assert code == 0
        assert "wr_data" in out          # table 1
        assert "Throughput" in out       # table 2
        assert "Hammercores" in out      # table 3


class TestFigures:
    @pytest.mark.parametrize("number", range(1, 10))
    def test_each_figure(self, capsys, number):
        code, out = run_cli(capsys, "figure", str(number))
        assert code == 0
        assert len(out) > 40

    def test_bad_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "12"])


class TestEncrypt:
    KEY = "000102030405060708090a0b0c0d0e0f"
    PT = "00112233445566778899aabbccddeeff"
    CT = "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_encrypt(self, capsys):
        code, out = run_cli(capsys, "encrypt", "--key", self.KEY,
                            "--data", self.PT)
        assert code == 0
        assert self.CT in out
        assert "50 cycles" in out

    def test_decrypt(self, capsys):
        code, out = run_cli(capsys, "encrypt", "--key", self.KEY,
                            "--data", self.CT, "--decrypt")
        assert code == 0
        assert self.PT in out

    def test_bad_hex(self):
        with pytest.raises(SystemExit):
            main(["encrypt", "--key", "zz", "--data", self.PT])

    def test_wrong_length(self):
        with pytest.raises(SystemExit):
            main(["encrypt", "--key", "aabb", "--data", self.PT])

    def test_aes256_routes_to_precomputed_core(self, capsys):
        key256 = ("000102030405060708090a0b0c0d0e0f"
                  "101112131415161718191a1b1c1d1e1f")
        code, out = run_cli(capsys, "encrypt", "--key", key256,
                            "--data", self.PT)
        assert code == 0
        # FIPS-197 Appendix C.3 ciphertext at the 70-cycle latency.
        assert "8ea2b7ca516745bfeafc49904b496089" in out
        assert "70 cycles" in out
        assert "AES-256" in out

    def test_aes192_decrypt(self, capsys):
        key192 = ("000102030405060708090a0b0c0d0e0f"
                  "1011121314151617")
        code, out = run_cli(capsys, "encrypt", "--key", key192,
                            "--data",
                            "dda97ca4864cdfe06eaf70a0ec0d7191",
                            "--decrypt")
        assert code == 0
        assert self.PT in out
        assert "60 cycles" in out


class TestFitAndSweep:
    def test_fit(self, capsys):
        code, out = run_cli(capsys, "fit", "--variant", "encrypt",
                            "--device", "Acex1K")
        assert code == 0
        assert "2114" in out

    def test_fit_sync_rom(self, capsys):
        code, out = run_cli(capsys, "fit", "--variant", "encrypt",
                            "--device", "Cyclone", "--sync-rom")
        assert code == 0
        assert "16384" in out

    def test_bad_variant(self):
        with pytest.raises(SystemExit):
            main(["fit", "--variant", "sideways"])

    def test_sweep(self, capsys):
        code, out = run_cli(capsys, "sweep")
        assert code == 0
        assert "mixed-32-128" in out
        assert "knee" in out


class TestCampaigns:
    def test_seu(self, capsys):
        code, out = run_cli(capsys, "seu", "--injections", "6",
                            "--seed", "1")
        assert code == 0
        assert "6 injections" in out

    def test_seu_hardened(self, capsys):
        code, out = run_cli(capsys, "seu", "--injections", "6",
                            "--seed", "1", "--hardened")
        assert code == 0
        assert "injections" in out

    def test_power(self, capsys):
        code, out = run_cli(capsys, "power", "--blocks", "2")
        assert code == 0
        assert "mW" in out


class TestArtifacts:
    def test_hdl_emission(self, capsys, tmp_path):
        code, out = run_cli(capsys, "hdl", "--variant", "encrypt",
                            "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "rijndael_pkg.vhd").exists()
        assert (tmp_path / "sbox_forward.mif").exists()
        assert "wrote" in out

    def test_vcd_dump(self, capsys, tmp_path):
        out_file = tmp_path / "wave.vcd"
        code, out = run_cli(capsys, "vcd", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert "$enddefinitions" in text
        assert "aes_data_ok" in text

    def test_vcd_waveform_spans_the_block_latency(self, capsys,
                                                  tmp_path):
        import re

        from repro.rtl.vcd import parse_vcd_header

        out_file = tmp_path / "wave.vcd"
        code, out = run_cli(capsys, "vcd", "--blocks", "2",
                            "--out", str(out_file))
        assert code == 0
        cycles = int(re.search(r"(\d+) cycles", out).group(1))
        text = out_file.read_text()
        timescale, variables = parse_vcd_header(text)
        assert timescale == "1 ns"
        names = dict(variables)
        assert names["aes_data_ok"] == 1
        assert names["aes_round"] == 4
        # Timestamps run at the 14 ns Acex1K clock; two 50-cycle
        # blocks must be visible inside the dumped window.
        stamps = [int(m) for m in
                  re.findall(r"^#(\d+)$", text, re.MULTILINE)]
        assert stamps == sorted(stamps)
        assert stamps[-1] <= cycles * 14
        assert stamps[-1] - stamps[0] >= 2 * 50 * 14


class TestBench:
    def test_gate_passes_and_writes_nothing(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.perf.evp import have_evp

        code, out = run_cli(capsys, "bench")
        assert code == 0
        names = "evp, sliced" if have_evp() else "sliced"
        assert (f"({names}) x 3 primitive(s) x 2 key(s), "
                f"0 mismatch(es)") in out
        assert "ghash equivalence:" in out
        assert "48 case(s), 0 mismatch(es)" in out
        assert list(tmp_path.iterdir()) == []

    def test_mismatch_exits_1_naming_the_backend(self, capsys,
                                                 monkeypatch):
        from repro.perf import bench
        from tests.perf.test_bench import _CorruptBackend

        backends = [*bench.host_backends(), _CorruptBackend()]
        monkeypatch.setattr(bench, "host_backends", lambda: backends)
        code = main(["bench"])
        captured = capsys.readouterr()
        assert code == 1
        assert "'corrupt'" in captured.err
        assert "mismatch(es)" not in captured.out


class TestStats:
    def test_text_format_shows_invariants(self, capsys):
        code, out = run_cli(capsys, "stats")
        assert code == 0
        assert "per-block latency: [50] cycles (model: 50)" in out
        assert "sub-events per round: [5] (model: 5)" in out

    def test_json_format(self, capsys):
        import json

        code, out = run_cli(capsys, "stats", "--blocks", "3",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["run"]["blocks"] == 3
        assert doc["hardware"]["run_cycles"] == 150
        assert doc["expected"]["block_cycles"] == 50

    def test_prom_format(self, capsys):
        code, out = run_cli(capsys, "stats", "--format", "prom")
        assert code == 0
        assert "# TYPE repro_ip_run_cycles_total counter" in out
        assert 'repro_ip_run_cycles_total{variant="encrypt"} 50' in out

    def test_chrome_trace_format(self, capsys):
        import json

        code, out = run_cli(capsys, "stats", "--format",
                            "chrome-trace")
        assert code == 0
        events = json.loads(out)
        assert all("ph" in e for e in events)
        assert "ip.encrypt" in [e["name"] for e in events]

    def test_sync_rom_decrypt(self, capsys):
        import json

        code, out = run_cli(capsys, "stats", "--variant", "decrypt",
                            "--sync-rom", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["expected"]["block_cycles"] == 60
        assert doc["run"]["setup_latency"] == 51

    def test_bad_blocks_exits(self):
        with pytest.raises(SystemExit):
            main(["stats", "--blocks", "0"])


class TestTraceFlag:
    def test_trace_file_is_chrome_loadable(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        code, _ = run_cli(capsys, "--trace", str(out_file),
                          "stats", "--blocks", "2")
        assert code == 0
        events = json.loads(out_file.read_text())
        assert isinstance(events, list) and events
        assert all("ph" in e and "ts" in e for e in events)
        names = [e["name"] for e in events]
        assert "cli.stats" in names
        assert "stats.collect" in names

    def test_trace_disabled_after_command(self, capsys, tmp_path):
        from repro.obs.tracing import active_tracer

        run_cli(capsys, "--trace", str(tmp_path / "t.json"),
                "stats")
        assert active_tracer() is None

    def test_trace_wraps_other_commands(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        code, _ = run_cli(capsys, "--trace", str(out_file),
                          "fit", "--variant", "encrypt",
                          "--device", "Acex1K")
        assert code == 0
        names = [e["name"]
                 for e in json.loads(out_file.read_text())]
        assert "cli.fit" in names


class TestServeCommands:
    """`repro-aes serve` + `repro-aes loadgen`, end to end.

    The server runs as a subprocess (its own event loop and signal
    handling); the load generator runs in-process so capsys sees its
    report.  The run ends with a SHUTDOWN frame — the same clean
    termination the CI smoke job uses.
    """

    def _start_server(self, tmp_path, *extra):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        src = str(repo / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src + os.pathsep + existing if existing else src
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--serve-seconds", "60", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(tmp_path),
        )
        line = proc.stdout.readline()
        assert "serving on" in line, line
        port = int(line.rsplit(":", 1)[1])
        return proc, port

    def test_serve_loadgen_round_trip(self, capsys, tmp_path):
        import json

        metrics_file = tmp_path / "serve-metrics.json"
        proc, port = self._start_server(
            tmp_path, "--metrics-out", str(metrics_file)
        )
        try:
            code, out = run_cli(
                capsys, "loadgen", "--port", str(port),
                "--clients", "3", "--requests", "4",
                "--mode", "gcm", "--size", "512", "--shutdown",
            )
            assert code == 0
            assert "12 ok, 0 error(s)" in out
            assert "req/s" in out
            rest, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "shut down cleanly" in rest
        metrics = json.loads(metrics_file.read_text())
        requests = metrics["repro_serve_requests_total"]
        served = sum(sample["value"]
                     for sample in requests["samples"])
        # 3 LOAD_KEYs + 12 encrypts + 1 SHUTDOWN.
        assert served >= 16

    def test_loadgen_unreachable_port_exits(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(SystemExit,
                           match="no requests succeeded"):
            main(["loadgen", "--port", str(port),
                  "--clients", "1", "--requests", "1"])

    def test_loadgen_dead_listener_exits_nonzero(self):
        # The listener accepts and immediately hangs up: every client
        # connects, then every owed request fails.  The run must not
        # report success.
        import socket
        import threading

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        port = listener.getsockname()[1]
        done = threading.Event()

        def slam_the_door():
            listener.settimeout(0.2)
            while not done.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                conn.close()

        thread = threading.Thread(target=slam_the_door, daemon=True)
        thread.start()
        try:
            with pytest.raises(SystemExit,
                               match="no requests succeeded"):
                main(["loadgen", "--port", str(port),
                      "--clients", "2", "--requests", "3"])
        finally:
            done.set()
            thread.join(timeout=5)
            listener.close()

    def test_loadgen_error_statuses_exit_nonzero(self, capsys):
        # A peer that answers every second ENCRYPT with INTERNAL:
        # the run completes, some requests fail — exit must be
        # nonzero and the tally must show the failures.
        import itertools
        import threading

        import repro.serve.protocol as proto

        started = threading.Event()
        state = {}
        flaky = itertools.count()

        def serve_errors():
            import asyncio

            async def on_connection(reader, writer):
                try:
                    while True:
                        frame = await proto.read_frame(
                            reader, timeout=10.0)
                        if frame.op is proto.Op.LOAD_KEY:
                            reply = frame.response()
                        elif next(flaky) % 2:
                            reply = frame.error(
                                proto.Status.INTERNAL,
                                "induced failure")
                        else:
                            reply = frame.response(
                                payload=frame.payload)
                        await proto.write_frame(
                            writer, reply, timeout=10.0)
                except (proto.FrameError, ConnectionError,
                        asyncio.IncompleteReadError,
                        asyncio.TimeoutError):
                    pass
                finally:
                    writer.close()

            async def main_loop():
                server = await asyncio.start_server(
                    on_connection, "127.0.0.1", 0)
                state["port"] = server.sockets[0].getsockname()[1]
                state["stop"] = asyncio.Event()
                state["loop"] = asyncio.get_running_loop()
                started.set()
                await state["stop"].wait()
                server.close()
                await server.wait_closed()

            asyncio.run(main_loop())

        thread = threading.Thread(target=serve_errors, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        try:
            code, out = run_cli(
                capsys, "loadgen", "--port", str(state["port"]),
                "--clients", "2", "--requests", "3",
            )
        finally:
            state["loop"].call_soon_threadsafe(state["stop"].set)
            thread.join(timeout=10)
        assert code == 1
        assert "3 ok, 3 error(s)" in out
        assert "internal" in out


class TestClusterCommand:
    """`repro-aes cluster` + `repro-aes loadgen`: the multi-process
    topology end to end, as operators run it.  The cluster is a
    subprocess (its own event loop, signal handling and spawned
    workers); the loadgen's keyed sessions run in-process and end the
    run with a SHUTDOWN frame through the gateway."""

    def test_cluster_loadgen_round_trip(self, capsys, tmp_path):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        src = str(repo / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src + os.pathsep + existing if existing else src
        )
        metrics_file = tmp_path / "cluster-metrics.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "cluster",
             "--workers", "2", "--gateway-port", "0",
             "--serve-seconds", "120",
             "--metrics-out", str(metrics_file)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(tmp_path),
        )
        try:
            line = proc.stdout.readline()
            assert "gateway on" in line, line
            port = int(line.rsplit(":", 1)[1])
            workers = [proc.stdout.readline() for _ in range(2)]
            assert all(w.startswith("worker ") for w in workers), \
                workers
            code, out = run_cli(
                capsys, "loadgen", "--port", str(port),
                "--clients", "4", "--requests", "3",
                "--mode", "gcm", "--size", "512", "--shutdown",
            )
            assert code == 0
            assert "12 ok, 0 error(s)" in out
            rest, _ = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "cluster shut down cleanly" in rest
        metrics = json.loads(metrics_file.read_text())
        routed = metrics["repro_gateway_requests_total"]
        forwarded = sum(
            sample["value"] for sample in routed["samples"]
            if sample["labels"].get("outcome") == "forwarded"
        )
        # 4 LOAD_KEYs + 12 encrypts forwarded; the SHUTDOWN frame is
        # answered at the gateway itself, not forwarded.
        assert forwarded >= 16
