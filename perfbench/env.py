"""Facts recorded with every result, so runs on two commits can be compared:
interpreter, processors, source identity and a digest of the inputs."""

from __future__ import annotations

import hashlib
import json
import os
import platform


def inputs_digest(ops) -> str:
    """SHA-256 of the generated inputs; equal digests mean identical work."""
    payload = json.dumps([[op.id, op.kind, op.spec] for op in ops], default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    for an exported tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_files() -> list[str]:
    found = []
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        found.extend(os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
    return found


def environment(workload: str, seed: int, digest: str) -> dict:
    """Everything but the measurements.  ``src_lines`` is information only."""
    sha = hashlib.sha256()
    lines = 0
    for path in _source_files():
        with open(path, "rb") as fh:
            data = fh.read()
        sha.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_digest": sha.hexdigest(),
        "src_lines": lines,
        "workload": workload,
        "seed": seed,
        "inputs_digest": digest,
    }
