#!/usr/bin/env python3
"""End-to-end benchmark of the `mptool` placement tool.

Builds perfbench/ (which compiles the repository's libraries from src/)
into .bench_build/perfbench, then runs one workload:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

The last line of stdout is the JSON result. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics and the layer-share
report. Other modes:

    --workload all             every workload, then one summary table
    --record FILE              also save the result with its fingerprint
    --compare A B              compare two recorded results; refuses when
                               their host fingerprints differ
    --determinism              run twice with the same seed and require
                               identical exact counts

Workloads, seeds and the reason for each workload: perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD / "mptool_perfbench"
TMP = ROOT / ".bench_build" / "tmp"
WORKLOADS = ["explore", "analyze", "certify"]
RUN_TIMEOUT_S = 175
HOST_KEYS = ["cpus", "cpu_model", "compiler", "build_type"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no program sources (src/CMakeLists.txt) next to perfbench/")
        sys.exit(2)
    # Compiler temporaries stay inside the checkout too.
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "mptool_perfbench", "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_one(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (exit code, stdout)."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def parse_output(stdout):
    """The fingerprint, exact counts and JSON result of one run."""
    fp, exact, result = None, None, None
    for line in stdout.splitlines():
        if line.startswith("fingerprint "):
            fp = json.loads(line[len("fingerprint "):])
        elif line.startswith("exact_counts "):
            exact = json.loads(line[len("exact_counts "):])
    lines = stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return fp, exact, result


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    diff = [k for k in HOST_KEYS
            if a["fingerprint"].get(k) != b["fingerprint"].get(k)]
    if diff:
        log("perfbench: REFUSING to compare: host fingerprints differ (" +
            ", ".join(f"{k}: {a['fingerprint'].get(k)!r} vs "
                      f"{b['fingerprint'].get(k)!r}" for k in diff) +
            "); re-measure both sides on one host")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("perfbench: the two results measure different workloads")
        return 3
    print(f"workload {a['workload']}: A = {path_a} (seed {a['seed']}), "
          f"B = {path_b} (seed {b['seed']})")
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        va, vb = ma[name]["value"], mb.get(name, {}).get("value")
        change = "" if vb is None or va == 0 else f"{100.0 * (vb - va) / va:+.2f}%"
        cell = "-" if vb is None else f"{vb:.6g}"
        print(f"  {name:32s} {va:>16.6g} {cell:>16s} "
              f"{ma[name]['unit']:6s} {change}")
    return 0


def summary(rows):
    names = []
    for _, result, _ in rows:
        for n in result["metrics"]:
            if n not in names:
                names.append(n)
    print("summary (" + ", ".join(w for w, _, _ in rows) + "):")
    print(f"  {'metric':34s}" + "".join(f"{w:>14s}" for w, _, _ in rows))
    for n in names:
        unit = next(r["metrics"][n]["unit"] for _, r, _ in rows
                    if n in r["metrics"])
        cells = "".join(
            f"{r['metrics'][n]['value']:>14.6g}" if n in r["metrics"]
            else f"{'-':>14s}" for _, r, _ in rows)
        print(f"  {n + ' [' + unit + ']':34s}{cells}")
    print(f"  {'error_rate [ratio]':34s}" + "".join(
        f"{r['failed'] / r['attempted']:>14.6g}" for _, r, _ in rows))
    for n in ["gen.msgs_per_sweep", "gen.bytes_per_sweep"]:
        if n not in names:
            print(f"  {n.replace('.', '_', 1) + ' [count]':34s}" + "".join(
                f"{e.get(n, 0):>14d}" for _, _, e in rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    rows, status = [], 0
    for w in workloads:
        code, out = run_one(w, args.seed, args.seconds, args.trace)
        fp, exact, result = parse_output(out)
        if code != 0 or result is None:
            sys.stdout.write(out)
            log(f"perfbench: {w} failed (exit {code})")
            return code or 1
        if args.determinism:
            code2, out2 = run_one(w, args.seed, args.seconds, args.trace)
            _, exact2, _ = parse_output(out2)
            if code2 != 0 or exact != exact2:
                log(f"perfbench: DETERMINISM FAILED: {w} exact counts differ "
                    f"between two runs with seed {args.seed}")
                result["correct"] = False
                status = 1
            else:
                log(f"perfbench: determinism ok: {w}, seed {args.seed}, "
                    f"{len(exact)} exact counts identical across two runs")
        if args.record:
            path = Path(args.record)
            if len(workloads) > 1:
                path = path.with_name(f"{path.stem}-{w}{path.suffix}")
            path.write_text(json.dumps(
                {"workload": w, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "fingerprint": fp,
                 "exact_counts": exact, "result": result}, indent=1) + "\n")
        rows.append((w, result, exact))
        if len(workloads) == 1:
            body = out.strip().splitlines()
            sys.stdout.write("\n".join(body[:-1]) + "\n")
            print(json.dumps(result))
        else:
            sys.stdout.write(out)
    if len(workloads) > 1:
        summary(rows)
        print(json.dumps({"correct": all(r["correct"] for _, r, _ in rows),
                          "attempted": sum(r["attempted"] for _, r, _ in rows),
                          "failed": sum(r["failed"] for _, r, _ in rows),
                          "metrics": {}}))
    return status


if __name__ == "__main__":
    sys.exit(main())
