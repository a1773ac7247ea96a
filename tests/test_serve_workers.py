"""Multi-worker serving: the worker pool, handoff, CLI liveness.

Workers are real OS processes mapping one shared artifact, so these
tests exercise the full path: fork, SO_REUSEPORT accept, newline-JSON
round trips, generation handoff acks, and clean teardown.  Kept small --
the grid's value is parallelism, but its *correctness* contract is that
every worker answers exactly like the classifier that was published.
"""

from __future__ import annotations

import json
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import kernel
from repro.core.classifier import APClassifier
from repro.datasets import internet2_like, random_headers, rule_update_stream, toy_network
from repro.obs import Recorder
from repro.serve import ServeGrid, closed_loop_qps, proto

TIMEOUT_S = 10.0


def ask(host, port, request: dict) -> dict:
    with socket.create_connection((host, port), timeout=TIMEOUT_S) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        line = b""
        while not line.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            line += chunk
    return json.loads(line)


@pytest.fixture(scope="module")
def toy_classifier():
    return APClassifier.build(toy_network())


class TestPool:
    def test_round_trip_matches_direct(self, toy_classifier):
        rng = random.Random(5)
        headers = random_headers(toy_classifier.dataplane.layout, 32, rng)
        expected = [toy_classifier.tree.classify(h) for h in headers]
        with ServeGrid(toy_classifier, replicas=2) as pool:
            assert ask("127.0.0.1", pool.port, {"op": "ping"}) == {
                "ok": True,
                "pong": True,
            }
            for header, atom in zip(headers, expected):
                response = ask(
                    "127.0.0.1", pool.port, {"op": "classify", "header": header}
                )
                assert response == {"ok": True, "atom": atom}

    def test_generation_handoff(self):
        network = internet2_like(prefixes_per_router=1)
        classifier = APClassifier.build(network)
        rng = random.Random(2)
        headers = random_headers(classifier.dataplane.layout, 48, rng)
        with ServeGrid(classifier, replicas=2) as pool:
            for update in rule_update_stream(network, 8, rng):
                if update.kind == "insert":
                    classifier.insert_rule(update.box, update.rule)
                else:
                    classifier.remove_rule(update.box, update.rule)
            pool.publish(classifier)
            expected = [classifier.tree.classify(h) for h in headers]
            got = [
                ask("127.0.0.1", pool.port, {"op": "classify", "header": h})["atom"]
                for h in headers
            ]
            assert got == expected

    def test_recorder_counts_workers_and_generations(self, toy_classifier):
        recorder = Recorder()
        pool = ServeGrid(toy_classifier, replicas=2, recorder=recorder)
        with pool:
            pool.publish(toy_classifier)
        assert recorder.serve.workers == 2
        assert recorder.serve.generations == 1

    def test_stop_is_idempotent(self, toy_classifier):
        pool = ServeGrid(toy_classifier, replicas=1)
        pool.start()
        pool.stop()
        pool.stop()

    def test_closed_loop_driver(self, toy_classifier):
        rng = random.Random(9)
        headers = random_headers(toy_classifier.dataplane.layout, 16, rng)
        with ServeGrid(toy_classifier, replicas=2) as pool:
            stats = closed_loop_qps(
                "127.0.0.1", pool.port, headers, connections=2, duration_s=0.3
            )
        assert stats["responses"] > 0
        assert stats["qps"] > 0

    def test_rejects_bad_worker_count(self, toy_classifier):
        with pytest.raises(ValueError):
            ServeGrid(toy_classifier, replicas=0)

    def test_failed_prepare_keeps_serving_the_old_generation(
        self, toy_classifier, monkeypatch
    ):
        import repro.serve.grid as grid_module

        rng = random.Random(3)
        headers = random_headers(toy_classifier.dataplane.layout, 16, rng)
        expected = [toy_classifier.tree.classify(h) for h in headers]
        real_new_block = grid_module._new_block

        def vanishing_block(blob):
            # The parent writes the block, then it disappears before any
            # member can map it: every member's prepare fails.
            block = real_new_block(blob)
            block.unlink()
            return block

        with ServeGrid(toy_classifier, replicas=2) as grid:
            monkeypatch.setattr(grid_module, "_new_block", vanishing_block)
            with pytest.raises(RuntimeError, match=r"prepare failed in 2 member"):
                grid.publish(toy_classifier)
            monkeypatch.undo()
            assert grid.generation == 0
            got = [
                ask("127.0.0.1", grid.port, {"op": "classify", "header": h})
                for h in headers
            ]
            assert got == [{"ok": True, "atom": a} for a in expected]
            # The failed attempt left nothing behind that blocks the next.
            assert grid.publish(toy_classifier) == 1

    def test_stop_closes_open_connections(self, toy_classifier):
        import time

        grid = ServeGrid(toy_classifier, replicas=1)
        grid.start()
        try:
            sock = socket.create_connection(("127.0.0.1", grid.port), timeout=TIMEOUT_S)
            sock.sendall(b'{"op": "ping"}\n')
            assert json.loads(sock.makefile().readline())["pong"] is True
        finally:
            started = time.monotonic()
            grid.stop()
        # The member hung up on the idle client on its way out, promptly
        # (not after the parent's join timeout).
        assert time.monotonic() - started < TIMEOUT_S
        with sock:
            assert sock.recv(1) == b""


class TestCLI:
    def test_serve_workers_liveness(self):
        """`repro serve --serve-workers 2` answers over TCP, and SIGTERM
        on the parent stops its workers too."""
        _serve_then_terminate(
            {"op": "classify", "packet": {"dst_ip": "10.2.0.1"}},
            "--serve-workers", "2",
        )

    def test_serve_workers_stop_under_load(self, toy_classifier):
        """SIGTERM while 4 connections keep framed ``CLASSIFY`` requests
        in flight: every worker exits and no process logs a traceback."""
        layout = toy_classifier.dataplane.layout
        headers = random_headers(layout, 256, random.Random(17))
        expected = toy_classifier.classify_batch(headers)
        frame = proto.pack_frame(
            proto.CLASSIFY,
            proto.encode_classify(
                headers, width=kernel.words_per_header(layout.total_width)
            ),
        )
        port = _free_port()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--dataset", "toy",
                "--port", str(port), "--serve-workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH="src"),
            text=True,
        )
        answered = [0] * 4
        wrong: list[int] = []

        def client(index: int) -> None:
            # Runs until the server hangs up on it.
            try:
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=TIMEOUT_S) as sock:
                    reader = sock.makefile("rb")
                    while True:
                        sock.sendall(frame)
                        head = reader.read(6)
                        if len(head) < 6:
                            return
                        _magic, length, ftype = struct.unpack("<BIB", head)
                        payload = reader.read(length)
                        if (ftype != proto.RESULT
                                or proto.decode_result(payload).tolist() != expected):
                            wrong.append(index)
                            return
                        answered[index] += 1
            except OSError:
                return

        children: list[int] = []
        clients = [
            threading.Thread(target=client, args=(i,), daemon=True)
            for i in range(4)
        ]
        try:
            _wait_for_port("127.0.0.1", port)
            children = _children_of(process.pid)
            assert len(children) >= 2 or not Path("/proc").is_dir()
            for thread in clients:
                thread.start()
            deadline = time.monotonic() + TIMEOUT_S
            while min(answered) < 3 and not wrong and time.monotonic() < deadline:
                time.sleep(0.01)
            assert min(answered) >= 3 and not wrong, (answered, wrong)
        finally:
            process.terminate()
            try:
                process.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=TIMEOUT_S)
            with process.stdout:
                output = process.stdout.read()
        for thread in clients:
            thread.join(timeout=TIMEOUT_S)
        assert not any(thread.is_alive() for thread in clients)
        assert not wrong
        _assert_all_exit(children)
        assert "Traceback" not in output, output


def _serve_then_terminate(classify: dict, *options: str) -> None:
    port = _free_port()
    env = dict(os.environ, PYTHONPATH="src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--dataset", "toy", "--port", str(port), *options,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    children: list[int] = []
    try:
        _wait_for_port("127.0.0.1", port)
        assert ask("127.0.0.1", port, {"op": "ping"})["ok"] is True
        assert ask("127.0.0.1", port, classify)["ok"] is True
        children = _children_of(process.pid)
        assert len(children) >= 2 or not Path("/proc").is_dir()
    finally:
        process.terminate()
        try:
            process.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=TIMEOUT_S)
        with process.stdout:
            output = process.stdout.read()
    _assert_all_exit(children)
    # Every process, members included, shuts its connections down
    # without an asyncio callback logging a traceback.
    assert "Traceback" not in output, output


def _stat(pid) -> tuple[str, int] | None:
    """``(state, ppid)`` of a process from /proc, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = text.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def _children_of(pid: int) -> list[int]:
    """Running child pids of ``pid`` (empty where there is no /proc)."""
    return [
        int(entry.name)
        for entry in Path("/proc").glob("[0-9]*")
        if (stat := _stat(entry.name)) and stat[1] == pid and stat[0] != "Z"
    ]


def _assert_all_exit(pids: list[int], timeout_s: float = TIMEOUT_S) -> None:
    # A zombie has exited; it only waits for whoever adopted it to reap it.
    deadline = time.monotonic() + timeout_s
    alive = pids
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [p for p in alive if (s := _stat(p)) and s[0] != "Z"]
    assert not alive, f"children outlived the serve parent: {alive}"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(host: str, port: int, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError(f"server on {host}:{port} never came up")
