"""The three workloads: inputs, one timed round, and the checks of its outputs.

A round calls the program back to back from one thread (a closed loop with
one client).  Each call is recorded under a key; ``blobs`` turns a round's
results into one byte string per operation, which is what the determinism
digests and the checks read.  An operation with no blob failed: its call, or
the call it depends on, raised or exited nonzero.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks as ck

SWEEP_GRID = [0.5 + 0.25 * i for i in range(23)]  # the CLI's 0.5:6:0.25


class Round:
    """Results of one round: the output of every call that returned, and stage times."""

    def __init__(self):
        self.out: dict = {}
        self.stage_s: list[float] = []

    def call(self, key, fn, *args, **kwargs):
        try:
            self.out[key] = fn(*args, **kwargs)
        except Exception:
            print(f"# call {key} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        return self.out.get(key)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s)


class Workload:
    """Base: subclasses build inputs, run stages and check outputs."""

    name = ""

    def __init__(self, sq, work: Path, seed: int):
        self.sq = sq
        self.work = work
        self.seed = seed

    def run_round(self) -> Round:
        rnd = Round()
        for stage in (self.stage1, self.stage2):
            t0 = time.perf_counter()
            stage(rnd)
            rnd.stage_s.append(time.perf_counter() - t0)
        return rnd

    # subclasses: make_inputs, ops, stage1, stage2, blobs, check, self_tests


def run_cli(sq, *argv) -> None:
    """``sphereq <argv>`` in this process; a nonzero exit code raises."""
    rc = sq.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"sphereq {argv[0]} exited with code {rc}")


def warm_up(sq, work: Path) -> None:
    """One small call into every layer: loads lazy code paths, starts BLAS threads."""
    rng = np.random.default_rng(12345)
    start = work / "warm_start.csv"
    start.write_text(ck.csv_text(ck.unit_gaussian(rng, 40)))
    refined, score = work / "warm_refined.csv", work / "warm_score.json"
    sq.pointgen.greedy_generate(8, sq.kernels.parse_kernel("pycke"), seed=1, grid_size=256)
    for argv in (
        ["refine", start, "--knn", 6, "--iters", 5, "--out", refined],
        ["score", refined, "--kernel", "cui-freeden", "--out", score],
        ["score", refined, "--kernel", "pycke", "--nmax", 8, "--m", 1, "--out", score],
    ):
        run_cli(sq, *argv)
    p20 = ck.unit_gaussian(rng, 20)
    sq.tables.series_node_discrepancy(sq.PointSet(p20[:15]), 8)
    sq.interpolation.epsilon_sweep(
        sq.PointSet(p20), ck.four_gaussians(p20), sq.KernelSpec("cui-freeden"),
        eps_grid=(1.0, 2.0), sigma=0.1, poly_degree=1,
    )


class GreedyLadder(Workload):
    """Table-1 pipeline: three greedy sequences, then the series score of every prefix."""

    name = "greedy_ladder"
    KERNELS = ("pycke", "pycke:d1", "pycke:d2")
    TOP, GRID, NMAX = 86, 8192, 90
    SIZES = (15, 43, 86)

    def make_inputs(self):
        pass  # the seed alone picks the first node of every sequence

    def ops(self):
        return [f"greedy:{k}" for k in self.KERNELS] + [
            f"ladder:{k}:{n}" for k in self.KERNELS for n in self.SIZES
        ]

    def stage1(self, rnd):
        for k in self.KERNELS:
            rnd.call(
                f"greedy:{k}", self.sq.pointgen.greedy_generate,
                self.TOP, self.sq.kernels.parse_kernel(k), seed=self.seed, grid_size=self.GRID,
            )

    def stage2(self, rnd):
        for k in self.KERNELS:
            pts = rnd.out.get(f"greedy:{k}")
            if pts is None:
                continue
            for n in self.SIZES:
                rnd.call(
                    f"ladder:{k}:{n}", self.sq.tables.series_node_discrepancy,
                    self.sq.PointSet(pts.points[:n]), self.NMAX,
                )

    def blobs(self, rnd):
        out = {}
        for key, val in rnd.out.items():
            out[key] = val.points.tobytes() if key.startswith("greedy:") else float(val).hex().encode()
        return out

    def ladder_reference(self, nodes, n):
        return ck.series_score(nodes[:n], 0, self.NMAX) * np.sqrt(n)

    def check(self, rnd):
        lattice = ck.fibonacci_lattice(self.GRID)
        fails = {}
        for k in self.KERNELS:
            pts = rnd.out.get(f"greedy:{k}")
            if pts is None:
                continue
            nodes = pts.points
            fails[f"greedy:{k}"] = ck.check_nodes(k, nodes, self.TOP) or ck.check_greedy(
                k, nodes, k, lattice
            )
            for n in self.SIZES:
                key = f"ladder:{k}:{n}"
                if key in rnd.out:
                    fails[key] = ck.check_close(
                        key, rnd.out[key], self.ladder_reference(nodes, n), ck.SCORE_RTOL
                    )
        return fails

    def self_tests(self, rnd):
        nodes = rnd.out["greedy:pycke"].points
        off = nodes.copy()
        off[3] *= 1.0 + 1e-6
        lattice = ck.fibonacci_lattice(self.GRID)
        worse = nodes[:40].copy()
        worse[20] = lattice[np.argmax(lattice @ worse[19])]  # the lattice point next to node 19
        ref = self.ladder_reference(nodes, 15)
        got = rnd.out["ladder:pycke:15"]
        return [
            ("node off the sphere", ck.check_nodes("t", off, self.TOP)),
            ("node replaced by a worse lattice point", ck.check_greedy("t", worse, "pycke", lattice)),
            ("ladder score off by 1e-6", ck.check_close("t", got * (1 + 1e-6), ref, ck.SCORE_RTOL)),
        ]


class RefineScore(Workload):
    """CLI in-process: refine a seeded random start, then score the result six ways."""

    name = "refine_score"
    SIZES = (206, 998)
    ITERS = 200  # the CLI default
    SCORES = tuple(
        (family, m) for family in ("cui-freeden", "pycke") for m in (0, 1, 2)
    )
    NMAX = 90

    def make_inputs(self):
        self.start = {}
        for n in self.SIZES:
            pts = ck.unit_gaussian(np.random.default_rng([self.seed, n]), n)
            path = self.work / f"start_{n}.csv"
            path.write_text(ck.csv_text(pts))
            self.start[n] = (path, pts)

    def refined(self, n):
        return self.work / f"refined_{n}.csv"

    def ops(self):
        return [f"refine:{n}" for n in self.SIZES] + [
            f"score:{n}:{f}:m{m}" for n in self.SIZES for f, m in self.SCORES
        ]

    def stage1(self, rnd):
        for n in self.SIZES:
            rnd.call(f"refine:{n}", run_cli, self.sq, "refine", self.start[n][0], "--out", self.refined(n))

    def stage2(self, rnd):
        for n in self.SIZES:
            if f"refine:{n}" not in rnd.out:
                continue
            for f, m in self.SCORES:
                key = f"score:{n}:{f}:m{m}"
                series = ["--nmax", self.NMAX] if f == "pycke" else []
                rnd.call(
                    key, run_cli, self.sq, "score", self.refined(n), "--kernel", f, "--m", m,
                    *series, "--out", self.work / f"{key.replace(':', '_')}.json",
                )

    def blobs(self, rnd):
        out = {}
        for key in rnd.out:
            _, n, *rest = key.split(":")
            if key.startswith("refine:"):
                path = self.refined(n)
                history = path.with_name(path.stem + "_history.csv")
                out[key] = path.read_bytes() + b"\0" + history.read_bytes()
            else:
                out[key] = (self.work / f"{key.replace(':', '_')}.json").read_bytes()
        return out

    def score_reference(self, nodes, family, m):
        if family == "pycke":
            return ck.series_score(nodes, m, self.NMAX)
        return ck.closed_form_score(nodes, family + (f":d{m}" if m else ""))

    @staticmethod
    def parse_refine(blob):
        nodes, history = blob.decode().split("\0")
        return (
            np.array(ck.parse_csv(nodes, "x,y,z")).reshape(-1, 3),
            ck.parse_csv(history, "iteration,discrepancy"),
        )

    def check(self, rnd):
        blobs = self.blobs(rnd)
        fails = {}
        for n in self.SIZES:
            key = f"refine:{n}"
            if key not in blobs:
                continue
            nodes, history = self.parse_refine(blobs[key])
            fails[key] = (
                ck.check_nodes(key, nodes, n)
                or ck.check_history(key, history, self.ITERS)
                or ck.check_below(
                    key,
                    ck.closed_form_score(nodes, "cui-freeden"),
                    ck.closed_form_score(self.start[n][1], "cui-freeden"),
                )
            )
            if fails[key]:
                continue
            for f, m in self.SCORES:
                skey = f"score:{n}:{f}:m{m}"
                if skey not in blobs:
                    continue
                rep = json.loads(blobs[skey])
                want = {"N": n, "m": m, "n_max": self.NMAX if f == "pycke" else None}
                got = {k: rep.get(k) for k in want}
                fails[skey] = (
                    [f"{skey}: report fields {got}, expected {want}"] if got != want
                    else ck.check_close(skey, rep["value"], self.score_reference(nodes, f, m), ck.SCORE_RTOL)
                )
        return fails

    def self_tests(self, rnd):
        n = self.SIZES[0]
        nodes, history = self.parse_refine(self.blobs(rnd)[f"refine:{n}"])
        off = nodes.copy()
        off[7] *= 1.0 + 1e-6
        flat = [list(r) for r in history]
        flat[-1][1] = flat[0][1]
        ref = self.score_reference(nodes, "pycke", 2)
        got = json.loads(self.blobs(rnd)[f"score:{n}:pycke:m2"])["value"]
        start = ck.closed_form_score(self.start[n][1], "cui-freeden")
        return [
            ("refined node off the sphere", ck.check_nodes("t", off, n)),
            ("series score off by 1e-6", ck.check_close("t", got * (1 + 1e-6), ref, ck.SCORE_RTOL)),
            ("history missing its last row", ck.check_history("t", history[:-1], self.ITERS)),
            ("history not below its start", ck.check_history("t", flat, self.ITERS)),
            ("refined score above the start", ck.check_below("t", start, ck.closed_form_score(nodes, "cui-freeden"))),
        ]


class LoocvSweep(Workload):
    """Shape-parameter sweep at N=1000, then a batch of small fast-LOOCV problems."""

    name = "loocv_sweep"
    N, SIGMA, DEGREE = 1000, 0.1, 1
    SMALL_N = range(8, 41)
    SMALL_EPS = 1.5
    SMALL_REPS = 10  # distinct draws of every (N, sigma, degree) shape
    SAMPLED = 3  # sweep rows recomputed from an explicit inverse, besides the best
    REFIT_CENTERS = 3

    def make_inputs(self):
        rot = ck.random_rotation(np.random.default_rng([self.seed, 1]))
        self.centers = ck.fibonacci_lattice(self.N) @ rot.T
        self.y = ck.four_gaussians(self.centers)
        rng = np.random.default_rng([self.seed, 2])
        self.small = []
        for _ in range(self.SMALL_REPS):
            for n in self.SMALL_N:
                for sigma in (0.0, 0.1):
                    for degree in (-1, 0, 1):
                        p = ck.unit_gaussian(rng, n)
                        self.small.append((p, ck.four_gaussians(p), sigma, degree))

    def ops(self):
        return [f"sweep:{i}" for i in range(len(SWEEP_GRID))] + [
            f"small:{i}" for i in range(len(self.small))
        ]

    def stage1(self, rnd):
        rnd.call(
            "sweep", self.sq.interpolation.epsilon_sweep,
            self.sq.PointSet(self.centers), self.y, self.sq.KernelSpec("cui-freeden"),
            eps_grid=SWEEP_GRID, sigma=self.SIGMA, poly_degree=self.DEGREE,
        )

    def stage2(self, rnd):
        fast = self.sq.interpolation.loocv_errors_fast
        cf = self.sq.KernelSpec("cui-freeden")
        for i, (p, y, sigma, degree) in enumerate(self.small):
            rnd.call(f"small:{i}", fast, self.sq.PointSet(p), y, cf, self.SMALL_EPS, sigma, degree)

    def blobs(self, rnd):
        out = {}
        for key, val in rnd.out.items():
            if key == "sweep":
                for i, row in enumerate(val.rows):
                    out[f"sweep:{i}"] = repr((row, val.best_epsilon, val.best_mse)).encode()
            else:
                out[key] = np.asarray(val, dtype=float).tobytes()
        return out

    def sweep_reference(self, i):
        g = ck.saddle(self.centers, SWEEP_GRID[i], self.SIGMA, self.DEGREE)
        return g, ck.loocv_by_inverse(g, self.y)

    def check(self, rnd):
        fails = {}
        report = rnd.out.get("sweep")
        if report is not None:
            rows = report.rows
            whole = []
            if [r[0] for r in rows] != SWEEP_GRID:
                whole.append("sweep rows do not match the epsilon grid")
            elif any(r[2] != "ok" or not (r[1] > 0.0) for r in rows):
                whole.append(f"sweep rows not all ok: {[r[2] for r in rows]}")
            else:
                best = min(range(len(rows)), key=lambda i: rows[i][1])
                if report.best_epsilon != rows[best][0]:
                    whole.append(f"best epsilon {report.best_epsilon} is not the row minimum")
            for i in range(len(rows)):
                fails[f"sweep:{i}"] = list(whole)
            if not whole:
                rng = np.random.default_rng([self.seed, 3])
                sampled = set(rng.choice(len(rows), self.SAMPLED, replace=False).tolist())
                for i in sorted(sampled | {best}):
                    g, e = self.sweep_reference(i)
                    fails[f"sweep:{i}"] = ck.check_close(
                        f"sweep:{i}", rows[i][1], float(np.mean(e**2)), ck.LOOCV_RTOL
                    )
                    if i == best:  # the shortcut itself, against explicit refits
                        idx = rng.choice(self.N, self.REFIT_CENTERS, replace=False)
                        fails[f"sweep:{i}"] += ck.check_errors(
                            "shortcut vs refit", e[idx], ck.loocv_by_refit(g, self.y, idx), self.y
                        )
        for i, (p, y, sigma, degree) in enumerate(self.small):
            key = f"small:{i}"
            if key in rnd.out:
                g = ck.saddle(p, self.SMALL_EPS, sigma, degree)
                fails[key] = ck.check_errors(key, rnd.out[key], ck.loocv_by_refit(g, y, range(len(y))), y)
        return fails

    def self_tests(self, rnd):
        p, y, sigma, degree = self.small[0]
        ref = ck.loocv_by_refit(ck.saddle(p, self.SMALL_EPS, sigma, degree), y, range(len(y)))
        altered = np.array(rnd.out["small:0"], dtype=float)
        altered[0] += 1e-6 * max(np.max(np.abs(ref)), np.max(np.abs(y)))
        mse = rnd.out["sweep"].rows[0][1]
        want = float(np.mean(self.sweep_reference(0)[1] ** 2))
        return [
            ("one small-problem LOOCV error altered", ck.check_errors("t", altered, ref, y)),
            ("sweep MSE off by 1e-6", ck.check_close("t", mse * (1 + 1e-6), want, ck.LOOCV_RTOL)),
        ]


WORKLOADS = {w.name: w for w in (GreedyLadder, RefineScore, LoocvSweep)}
