"""Seeded workload generators, the timed call of each op, and its oracle check.

Every input is a pure function of (seed, op index), so a run can be
replayed exactly. The library only ever sees the generated inputs; the
class labels and reference data stay on the benchmark side.

A check returns a list of (kind, message) problems: kind "error" for an
op that raised, exited non-zero or wrote no artifact, and "mismatch" for
an output outside the oracle tolerance.
"""

import csv
import json
import shutil

import numpy as np

import oracle

CLASSES = ("real-distinct", "oscillatory", "saddle", "stiff")
# (n, m, p) of a CLI job: cost grows with all three (p sets the root's
# price), so shapes and classes each cycle through every value in turn and
# every run sees the same blend
SHAPES = [(n, m, p) for n in (2, 3, 4) for m in (1, 2) for p in (2, 4, 6)]
BUDGET = 1.0
WING = {"b": 9.144, "c_bar": 3.45}  # the surrogate wing's baseline design


def _rng(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


def _distinct(rng, count, lo, hi, gap, avoid=()):
    while True:
        vals = rng.uniform(lo, hi, count)
        allv = np.sort(np.concatenate([vals, avoid]))
        if count == 0 or np.all(np.diff(allv) >= gap):
            return list(vals)


def random_system(rng, cls, n, m, fast):
    """A = V D V^-1 with a spectrum of the given class, cond(V) <= 30.

    fast is (lo, hi) for the magnitude of the saddle and stiff rates.
    """
    lo, hi = fast
    if cls == "real-distinct":
        blocks = _distinct(rng, 2, -2.0, 2.0, 0.3)
    elif cls == "oscillatory":
        mu, om = rng.uniform(-1.0, 0.5), rng.uniform(2.0, 12.0)
        blocks = [np.array([[mu, om], [-om, mu]])]
    elif cls == "saddle":
        blocks = [rng.uniform(lo, hi) / 2.0, -rng.uniform(lo, hi) / 2.0]
    else:
        blocks = [-rng.uniform(lo, hi), rng.uniform(-2.0, 0.5)]
    reals = [b for b in blocks if np.isscalar(b)]
    blocks += _distinct(rng, n - 2, -2.0, 1.0, 0.3, avoid=reals)
    D = np.zeros((n, n))
    k = 0
    for b in blocks:
        size = 1 if np.isscalar(b) else 2
        D[k:k + size, k:k + size] = b
        k += size
    while True:
        V = rng.standard_normal((n, n))
        V /= np.linalg.norm(V, axis=0)
        if np.linalg.cond(V) <= 30.0:
            break
    A = V @ D @ np.linalg.inv(V)
    B = rng.standard_normal((n, m))
    B /= np.maximum(np.linalg.norm(B, axis=0), 1e-3)
    return A, B


def _problem(kind, message):
    return [(kind, message)]


def _residual_problems(got, want, scale, tol, feas_tol):
    """Constraint residual against the oracle's, then feasibility within feas_tol."""
    if abs(got - want) > tol:
        return _problem("mismatch", f"residual {got:.9g}, oracle {want:.9g}")
    if want < -feas_tol * scale - tol:
        return _problem("mismatch", f"optimum infeasible: normalized residual {want / scale:.3e}")
    return []


def _rel_err(got, want):
    scale = float(np.max(np.abs(want))) if np.size(want) else 0.0
    return float(np.max(np.abs(np.asarray(got) - want))) / (scale or 1.0)


# ---------------------------------------------------------------- switch-scan


class SwitchScan:
    """K costate directions per planar single-input system; one op is one
    bang_bang_control call followed by switch_count on the same grid."""

    name = "switch-scan"

    @staticmethod
    def cycle(cfg):
        """Ops in which every spectrum class gets one system and all its directions."""
        return cfg["directions_per_system"] * len(CLASSES)

    def __init__(self, seed, cfg, tol, workdir):
        self.seed, self.cfg, self.tol = seed, cfg, tol
        self.K = cfg["directions_per_system"]
        self.T = cfg["horizon"]
        self._systems = {}

    def _system(self, s, stream):
        if (s, stream) not in self._systems:
            rng = _rng(self.seed, stream, s)
            cls = CLASSES[_stratified(self.seed, stream, s, len(CLASSES))]
            A, B = random_system(rng, cls, 2, 1, self.cfg["fast_rates"])
            lo, hi = -rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
            angles = rng.uniform(0.0, 2.0 * np.pi, self.K)
            dirs = np.column_stack([np.cos(angles), np.sin(angles)])
            # only the current system is needed: ops run in index order
            self._systems = {(s, stream): (cls, A, B, lo, hi, dirs)}
        return self._systems[(s, stream)]

    def spec(self, i, stream=1):
        cls, A, B, lo, hi, dirs = self._system(i // self.K, stream)
        return {"cls": cls, "A": A, "B": B, "lo": lo, "hi": hi, "c": dirs[i % self.K]}

    def warmup_spec(self):
        return self.spec(0, stream=2)

    def run(self, rk, spec):
        sys_ = rk.LtiSystem(spec["A"], spec["B"])
        bounds = rk.ControlBounds(lower=[spec["lo"]], upper=[spec["hi"]])
        control = rk.bang_bang_control(sys_, bounds, spec["c"], self.T)
        report = rk.switch_count(sys_, spec["c"], self.T, self.cfg["scan_grid_points"])
        return control.switch_times, control.values[:, 0], int(report.sign_changes[0])

    def check(self, rk, spec, out):
        times, values, count = out
        A, B, c, T = spec["A"], spec["B"], spec["c"], self.T
        want = oracle.switch_times(A, B, c, T, self.cfg["oracle_grid_points"])
        if len(times) != len(want):
            return _problem("mismatch", f"{len(times)} switches, oracle {len(want)} "
                            f"(got {np.round(times, 6).tolist()}, want {np.round(want, 6).tolist()})")
        if len(want) and np.max(np.abs(times - want)) > self.tol["switch_time_abs"] * T:
            return _problem("mismatch", f"switch times off by {np.max(np.abs(times - want)):.3e}")
        if count != len(want):
            return _problem("mismatch", f"switch_count {count}, oracle {len(want)}")
        edges = np.concatenate([[0.0], want, [T]])
        psi = oracle.psi_modal(A, B, c, T)(0.5 * (edges[:-1] + edges[1:]))
        expect = np.where(psi >= 0.0, spec["hi"], spec["lo"])
        if not np.array_equal(values, expect):
            return _problem("mismatch", "control levels disagree with the sign of psi")
        return []


def _stratified(seed, stream, index, count):
    """index-th draw of 0..count-1, each block of count a seeded permutation."""
    block, pos = divmod(index, count)
    return int(_rng(seed, 100 + stream, block).permutation(count)[pos])


# ------------------------------------------------------------------- cli-mix


class CliMix:
    """Seeded stream of CLI jobs over all six tasks, run through
    reachkit.cli.main in-process; each job writes real artifacts."""

    name = "cli-mix"

    @staticmethod
    def cycle(cfg):
        """Ops in one block of the task mix."""
        return sum(cfg["mix"].values())

    def __init__(self, seed, cfg, tol, workdir):
        self.seed, self.cfg, self.tol = seed, cfg, tol
        self.workdir = workdir
        self.tasks = [t for t, w in sorted(cfg["mix"].items()) for _ in range(w)]

    def _task(self, i):
        """Task of job i and how many jobs of that task came before it."""
        block, pos = divmod(i, len(self.tasks))
        order = _rng(self.seed, 10, block).permutation(len(self.tasks))
        task = self.tasks[order[pos]]
        earlier = sum(1 for j in order[:pos] if self.tasks[j] == task)
        return task, block * self.tasks.count(task) + earlier

    def spec(self, i, task=None, stream=11):
        task, k = (task, i) if task else self._task(i)
        rng = _rng(self.seed, stream, i)
        spec = {"task": task, "i": i, "dir": self.workdir / f"job{stream}-{i}"}
        if task == "optimize":
            spec["cls"] = "longitudinal"
            spec["factor"] = float(rng.uniform(1.05, 1.3))
            spec["horizon"] = float(rng.uniform(0.5, 2.0))
            spec["trim"] = {"alpha_deg": float(rng.uniform(8.0, 14.0)),
                            "airspeed_knots": float(rng.uniform(130.0, 170.0)),
                            "altitude_feet": float(rng.uniform(2000.0, 8000.0))}
            system = {"model": "longitudinal", "design": WING,
                      "trim": spec["trim"], "derivatives": "default"}
            params = {"constraint": {"type": "gramian_trace", "factor": spec["factor"],
                                     "horizon": spec["horizon"]}}
        else:
            stream = 20 + 2 * sorted(self.cfg["mix"]).index(task)
            cls = CLASSES[_stratified(self.seed, stream, k, len(CLASSES))]
            n, m, p = SHAPES[_stratified(self.seed, stream + 1, k, len(SHAPES))]
            if task == "boundary":
                n, m = 2, 1
            fast = self.cfg["boundary_fast_rates" if task == "boundary" else "lp_fast_rates"]
            A, B = random_system(rng, cls, n, m, fast)
            spec.update(cls=cls, A=A, B=B, T=1.0)
            system = {"A": A.tolist(), "B": B.tolist()}
            params = {"T": 1.0}
            if task == "boundary":
                spec["lo"], spec["hi"] = -rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
                params.update(bounds={"lower": spec["lo"], "upper": spec["hi"]}, n_eta=400)
            elif task == "gramian":
                spec["T"] = params["T"] = float(rng.uniform(0.5, 2.0))
                spec["budget"] = params["budget"] = float(rng.uniform(0.5, 2.0))
            else:
                spec["p"] = p
                spec.update(self.cfg["lp"][task])
                shells = np.array(spec["shells"]) * self._shell_scale(spec, task)
                spec["magnitudes"] = shells.tolist()
                params.update(p=spec["p"], budget=BUDGET, nodes=spec["nodes"],
                              grid={"magnitudes": spec["magnitudes"],
                                    "directions_per_shell": spec["directions"]})
        spec["config"] = {"system": system, "task": {"name": task, **params}, "seed": self.seed}
        return spec

    def _shell_scale(self, spec, task):
        """Radius putting the unit shell at the median budget (or certificate) edge."""
        A, B, p, T = spec["A"], spec["B"], spec["p"], spec["T"]
        q = p / (p - 1)
        if task == "inner-approx":
            return oracle.certified_radius(A, B, p, T, 201) ** (1.0 / q)
        rng = _rng(self.seed, 12, spec["i"])
        dirs = rng.standard_normal((24, A.shape[0]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        _, costs, _ = oracle.lp_sweep(A, B, p, T, dirs, 201)
        return float((BUDGET**p / np.median(costs)) ** (1.0 / q))

    def warmup_spec(self):
        return self.spec(0, task=self.cfg["warmup_task"], stream=13)

    def run(self, rk, spec):
        spec["dir"].mkdir(parents=True, exist_ok=True)
        cfg_path = spec["dir"] / "config.json"
        cfg_path.write_text(json.dumps(spec["config"]))
        out = spec["dir"] / "out"
        argv = [spec["task"], "--config", str(cfg_path), "--out", str(out), "--seed", str(self.seed)]
        return rk.cli.main(argv)

    def check(self, rk, spec, code):
        out = spec["dir"] / "out"
        try:
            if code != 0:
                return _problem("error", f"exit code {code}")
            problems = getattr(self, "_check_" + spec["task"].replace("-", "_"))(rk, spec, out)
            expected = [f.name for f in out.iterdir() if f.name != "manifest.json"]
            problems += [("mismatch", m) for m in oracle.manifest_problems(out, expected)]
            return problems
        finally:
            shutil.rmtree(spec["dir"], ignore_errors=True)

    def _check_boundary(self, rk, spec, out):
        rows = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1)
        etas, g1, g2 = rows[:, 0], rows[:, 1:3], rows[:, 3:5]
        head = oracle.convolution_head(spec["A"], spec["B"], spec["T"], etas)
        tail = head[-1] - head
        w1 = spec["hi"] * head + spec["lo"] * tail
        w2 = spec["lo"] * head + spec["hi"] * tail
        err = _rel_err(np.vstack([g1, g2]), np.vstack([w1, w2]))
        if err > self.tol["boundary_rel"]:
            return _problem("mismatch", f"boundary points off by {err:.3e} (relative)")
        hull = json.loads((out / "hull.json").read_text())
        problems = self._volume_problems(hull, np.vstack([g1, g2]), 2, self.tol["volume_rel"])
        if problems:
            return problems
        if hull["exact"] != (spec["cls"] != "oscillatory"):
            return _problem("mismatch", f"exact flag {hull['exact']} for a {spec['cls']} spectrum")
        return []

    def _check_gramian(self, rk, spec, out):
        got = json.loads((out / "gramian.json").read_text())
        W = oracle.gramian(spec["A"], spec["B"], spec["T"])
        tol = self.tol["gramian_rel"]
        err = _rel_err(np.array(got["W"]), W)
        if err > tol:
            return _problem("mismatch", f"Gramian off by {err:.3e} (relative)")
        eig = np.sort(np.linalg.eigvalsh(W))[::-1]
        # squared semi-axes: the square root would amplify roundoff near zero
        squared = np.array([a["length"] for a in got["axes"]]) ** 2
        if (_rel_err(got["eigenvalues"], eig) > tol
                or abs(got["trace"] - np.trace(W)) > tol * abs(np.trace(W))
                or _rel_err(squared, spec["budget"] * eig) > tol):
            return _problem("mismatch", "eigenvalues, trace or axes disagree with the oracle")
        return []

    def _read_cloud(self, out, n):
        with open(out / "cloud.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        num = np.array([[float(v) for v in r[:2 * n + 1]] for r in rows]).reshape(-1, 2 * n + 1)
        flags = np.array([[v == "true" for v in r[2 * n + 1:]] for r in rows], dtype=bool)
        return num[:, :n], num[:, n:2 * n], num[:, 2 * n], flags.reshape(-1, 2)

    def _lp_problems(self, spec, out, lam, ends, costs, flags):
        A, B, p, T, nodes = spec["A"], spec["B"], spec["p"], spec["T"], spec["nodes"]
        n = A.shape[0]
        norms = np.linalg.norm(lam, axis=1)
        mags = np.array(spec["magnitudes"])
        if len(lam) and np.max(np.min(np.abs(norms[:, None] - mags) / mags, axis=1)) > 1e-12:
            return _problem("mismatch", "costate rows off the requested shells")
        want_ends, want_costs, slack = oracle.lp_sweep(A, B, p, T, lam, nodes, self.tol["z_rel"])
        scale = float(np.max(np.abs(want_ends)))
        excess = np.max(np.abs(ends - want_ends), axis=1) - slack
        if np.max(excess) > self.tol["endpoint_rel"] * scale:
            return _problem("mismatch", f"endpoints off by {np.max(excess) / scale:.3e} "
                            "(relative, beyond the root-conditioning slack)")
        err = _rel_err(costs, want_costs)
        if err > self.tol["cost_rel"]:
            return _problem("mismatch", f"costs off by {err:.3e} (relative)")
        margin = self.tol["label_margin_rel"]
        clear = np.abs(want_costs - BUDGET**p) > margin * BUDGET**p
        if np.any((flags[:, 0] != (want_costs <= BUDGET**p))[clear]):
            return _problem("mismatch", "reachable labels disagree with the oracle cost")
        radius = oracle.certified_radius(A, B, p, T, nodes)
        lam_q = np.sum(np.abs(lam) ** (p / (p - 1)), axis=1)
        clear = np.abs(lam_q - radius) > margin * radius
        if np.any((flags[:, 1] != (lam_q <= radius * BUDGET**p))[clear]):
            return _problem("mismatch", "certificate labels disagree with the oracle radius")
        if np.any(flags[:, 1] & (want_costs > BUDGET**p * (1.0 + margin))):
            return _problem("mismatch", "a certified costate exceeds the budget")
        if flags[:, 0].any():
            # the hull is checked on the library's own endpoints, checked above
            hull = json.loads((out / "hull.json").read_text())
            return self._volume_problems(hull, ends[flags[:, 0]], n, self.tol["volume_rel"])
        return []

    def _volume_problems(self, hull, points, n, rel):
        vol = oracle.hull_volume(points, n)
        # roundoff in a thin hull's volume scales with its bounding box
        box = float(np.prod(np.ptp(points, axis=0))) if len(points) else 0.0
        if abs(hull["volume"] - vol) > rel * vol + self.tol["volume_rel"] * box:
            return _problem("mismatch", f"hull volume {hull['volume']:.9g}, oracle {vol:.9g}")
        return []

    def _check_lp_sample(self, rk, spec, out):
        lam, ends, costs, flags = self._read_cloud(out, spec["A"].shape[0])
        if not len(lam):
            return _problem("mismatch", "empty cloud")
        return self._lp_problems(spec, out, lam, ends, costs, flags)

    def _check_inner_approx(self, rk, spec, out):
        lam, ends, costs, flags = self._read_cloud(out, spec["A"].shape[0])
        if len(lam) and not flags[:, 1].all():
            return _problem("mismatch", "inner approximation kept an uncertified costate")
        return self._lp_problems(spec, out, lam, ends, costs, flags) if len(lam) else []

    def _check_volume(self, rk, spec, out):
        A, B, p, T, nodes = spec["A"], spec["B"], spec["p"], spec["T"], spec["nodes"]
        grid = rk.costate_grid(A.shape[0], spec["magnitudes"], spec["directions"])
        ends, costs, slack = oracle.lp_sweep(A, B, p, T, grid, nodes, self.tol["z_rel"])
        keep = costs <= BUDGET**p
        rel = oracle.volume_tolerance(ends[keep], slack[keep], self.tol["volume_rel"])
        hull = json.loads((out / "hull.json").read_text())
        return self._volume_problems(hull, ends[keep], A.shape[0], rel)

    def _check_optimize(self, rk, spec, out):
        got = json.loads((out / "optresult.json").read_text())
        if not got["converged"]:
            return _problem("mismatch", "optimizer did not converge")
        trim = rk.TrimPoint.from_flight_units(spec["trim"]["alpha_deg"],
                                              spec["trim"]["airspeed_knots"],
                                              spec["trim"]["altitude_feet"])
        table = rk.default_derivative_table()

        def trace(dv):
            sys_ = rk.longitudinal_model(rk.DesignVariables(dv), trim, table)
            return float(np.trace(oracle.gramian(sys_.A, sys_.B, spec["horizon"])))

        base = trace(WING)
        residual = trace(got["optimum"]) - spec["factor"] * base
        tol = self.tol["gramian_rel"] * base
        problems = _residual_problems(got["constraint_residuals"][0], residual, base, tol,
                                      self.tol["feas_tol"])
        if problems:
            return problems
        objective = got["objective_value"]
        if abs(objective - sum(got["optimum"].values())) > 1e-12 * objective:
            return _problem("mismatch", "objective is not b + c_bar at the optimum")
        return []


# ---------------------------------------------------------------- design-opt


class DesignOpt:
    """Seeded surrogate-wing problems with a reach-volume constraint, each
    solved to convergence by optimize; one op is one solve."""

    name = "design-opt"

    @staticmethod
    def cycle(cfg):
        """Ops covering both variants, trim and derivative table."""
        return 2

    def __init__(self, seed, cfg, tol, workdir):
        self.seed, self.cfg, self.tol = seed, cfg, tol

    def spec(self, i, stream=20):
        rng = _rng(self.seed, stream, i)
        return {
            "cls": "longitudinal",
            "variant": "trim" if i % 2 == 0 else "table",
            "trim": (float(rng.uniform(8.0, 14.0)), float(rng.uniform(130.0, 170.0)),
                     float(rng.uniform(2000.0, 8000.0))),
            "scales": rng.uniform(0.9, 1.1, 13).tolist(),
            "factor": float(rng.uniform(1.05, 1.2)),
        }

    def warmup_spec(self):
        return self.spec(0, stream=21)

    def problem(self, rk, spec):
        trim = rk.default_trim_point()
        table = rk.default_derivative_table()
        if spec["variant"] == "trim":
            trim = rk.TrimPoint.from_flight_units(*spec["trim"])
        else:
            base = rk.design.BASELINE_DERIVATIVES
            names = list(base.__dataclass_fields__)
            scaled = {k: getattr(base, k) * s for k, s in zip(names, spec["scales"])}
            table = rk.ScalableDerivativeTable(base=rk.StabilityDerivatives(**scaled),
                                               b_ref=table.b_ref, c_bar_ref=table.c_bar_ref)
        constraint = rk.LpVolumeConstraint(
            spec=rk.LpSpec(p=self.cfg["p"], T=1.0), factor=spec["factor"],
            magnitudes=self.cfg["magnitudes"], nodes=self.cfg["nodes"],
            directions_per_shell=self.cfg["directions_per_shell"])
        return rk.surrogate_wing_problem(constraint, trim=trim, table=table), constraint

    def run(self, rk, spec):
        problem, constraint = self.problem(rk, spec)
        spec["constraint"] = constraint
        return rk.optimize(problem), problem

    def check(self, rk, spec, out):
        result, problem = out
        if not result.converged:
            return _problem("mismatch", "optimizer did not converge")
        c = spec["constraint"]

        def volume(dv):
            sys_ = problem.build_system(dv)
            grid = c.grid_for(sys_.n)
            ends, costs, slack = oracle.lp_sweep(sys_.A, sys_.B, c.spec.p, c.spec.T, grid,
                                                 c.nodes, self.tol["z_rel"])
            keep = costs <= c.spec.budget**c.spec.p
            vol = oracle.hull_volume(ends[keep], sys_.n)
            return vol, vol * oracle.volume_tolerance(ends[keep], slack[keep], self.tol["volume_rel"])

        base, base_tol = volume(problem.baseline)
        if base <= 0.0:
            return _problem("mismatch", "degenerate baseline reach volume")
        vol, vol_tol = volume(result.optimum)
        residual = vol - c.factor * base
        return _residual_problems(result.constraint_residuals[0], residual, base,
                                  vol_tol + c.factor * base_tol, self.tol["feas_tol"])


WORKLOADS = {w.name: w for w in (CliMix, SwitchScan, DesignOpt)}

