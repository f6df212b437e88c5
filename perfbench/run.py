#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `implicitd` (release) from the
workspace and the `perfbench` driver from this directory into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the driver, whose
last line of output is the JSON result. Extra arguments after the four
above (for example `--corrupt-expected`) are passed to the driver.
"""

import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision when run in a clone, else a digest of the
    sources under test (a plain checkout carries no git metadata)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "crates", "src", "Cargo.lock"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        p = ROOT / top
        files = [p] if p.is_file() else sorted(p.rglob("*.rs")) + sorted(p.rglob("Cargo.toml"))
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build(target, args):
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT, stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": str(target)},
    )
    if r.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main():
    for needed in ("Cargo.toml", "crates/pipeline", "src/bin/implicitd.rs"):
        if not (ROOT / needed).exists():
            fail(f"run from the repository root: `{needed}` is missing")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(target, ["--bin", "implicitd"])
    build(target, ["--manifest-path", str(HERE / "Cargo.toml")])

    work = target / "perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--implicitd", str(target / "release" / "implicitd"),
        "--work-dir", str(work),
        "--rev", revision(),
    ]
    # The driver and the daemons it spawns share a process group of their
    # own, so a stopped runner stops all of them.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    try:
        code = child.wait()
    finally:
        stop()
        child.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
