"""The three workloads: inputs from a seed, timed rounds, and their checks.

A workload's ``run_round(r, timed)`` makes the round's calls into ``sst``
through ``timed(fn)`` (which times the call and runs the drift
reference after it), checks what it can right away, and returns
``(attempted, failed)``.  ``finish()`` makes the checks that need the
whole run or networkx, after the peak resident set has been read.
Every round attempts the same operations, so the failed share of a run
never depends on its length or seed.

Calls reach ``sst`` through module attributes at call time (``sst.relax``,
``sst.cli.run`` ...), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import oracles as orc
import sst

# --- shared helpers -----------------------------------------------------------


def call_seed(seed, *path):
    """A 64-bit seed for one call, distinct per (run seed, round, call)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_arcs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok and len(self.failures) < 50:
            self.failures.append(what)


# --- perturb_map --------------------------------------------------------------

# (name, structure JSON, noise family, draws per call).  Draws per call give
# each call a comparable share (about 60 ms on the README's host).
PM_STRUCTURES = (
    ("one_hot", {"kind": "one_hot", "n": 50}, "gumbel", 2000),
    ("k_subsets", {"kind": "k_subsets", "n": 100, "k": 10}, "gumbel", 500),
    ("corr_k_subsets", {"kind": "corr_k_subsets", "n": 20, "k": 5}, "gumbel", 200),
    ("matching", {"kind": "matching", "n": 8}, "gumbel", 800),
    ("spanning_tree", {"kind": "spanning_tree", "graph": {
        "num_nodes": 10, "edges": complete_edges(10), "directed": False}}, "gumbel", 500),
    ("arborescence", {"kind": "arborescence", "root": 0, "graph": {
        "num_nodes": 10, "edges": complete_arcs(10), "directed": True}}, "neg_exponential", 200),
)


_PM_CATEGORICAL = (("tree_categorical", 800), ("arborescence_categorical", 300),
                   ("topk_categorical", 600))

PERTURB_MAP_KINDS = tuple(s[0] for s in PM_STRUCTURES) + tuple(c[0] for c in _PM_CATEGORICAL)


def _dim(js):
    kind = js["kind"]
    if kind in ("one_hot", "k_subsets"):
        return js["n"]
    if kind == "corr_k_subsets":
        return 2 * js["n"] - 1
    if kind == "matching":
        return js["n"] ** 2
    return len(js["graph"]["edges"])


def _valid_rows(name, js, rows):
    """Vectorized vertex checks on a table's support (one row per vertex)."""
    if name == "one_hot":
        return (rows.sum(1) == 1).all()
    if name in ("k_subsets", "topk_categorical"):
        return (rows.sum(1) == js["k"]).all()
    if name == "corr_k_subsets":
        n = js["n"]
        return ((rows[:, :n].sum(1) == js["k"]).all()
                and (rows[:, n:] == rows[:, : n - 1] * rows[:, 1:n]).all())
    if name == "matching":
        m = rows.reshape(-1, js["n"], js["n"])
        return (m.sum(1) == 1).all() and (m.sum(2) == 1).all()
    edges = np.array(js["graph"]["edges"])
    nodes = js["graph"]["num_nodes"]
    root = js.get("root")
    if root is not None:
        # one entering edge per non-root node, none into the root
        indeg = rows @ np.eye(nodes, dtype=np.int64)[edges[:, 1]]
        want = np.ones(nodes, dtype=np.int64)
        want[root] = 0
        if not (indeg == want).all():
            return False
    # n - 1 edges spanning exactly one tree (or arborescence) each
    trees = orc.spanning_tree_counts(edges, nodes, rows, root)
    return (rows.sum(1) == nodes - 1).all() and (np.abs(trees - 1.0) < 1e-6).all()


class PerturbMap:
    """Hard draws: ``sst sample`` in process with table output, plus the
    categorical processes tallied by ``mc_frequencies``.  One op is one draw."""

    name = "perturb_map"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.checks = Checks()
        rng = np.random.default_rng(seed)
        self.structs = []
        for name, js, family, draws in PM_STRUCTURES:
            theta = rng.uniform(-1.0, 1.0, _dim(js))
            if family == "neg_exponential":
                theta = np.exp(theta)  # rates
            spec_path = os.path.join(workdir, f"{name}.spec.json")
            noise_path = os.path.join(workdir, f"{name}.noise.json")
            with open(spec_path, "w") as fh:
                json.dump(js, fh)
            with open(noise_path, "w") as fh:
                json.dump({"family": family, "theta": theta.tolist()}, fh)
            self.structs.append(dict(name=name, js=js, family=family, draws=draws,
                                     theta=theta, spec=spec_path, noise=noise_path))
        by = {s["name"]: s for s in self.structs}
        tree, arb, ksub = by["spanning_tree"], by["arborescence"], by["k_subsets"]
        self.graph_tree = sst.Graph(10, tuple(map(tuple, tree["js"]["graph"]["edges"])))
        self.graph_arb = sst.Graph(10, tuple(map(tuple, arb["js"]["graph"]["edges"])),
                                   directed=True)
        cat_draws = dict(_PM_CATEGORICAL)
        # each categorical process is the law of one argmax process above
        self.categorical = [
            dict(name="tree_categorical", twin="spanning_tree", js=tree["js"],
                 draws=cat_draws["tree_categorical"],
                 sampler=lambda r, th=tree["theta"]: sst.sample_tree_categorical(
                     self.graph_tree, th, r)),
            dict(name="arborescence_categorical", twin="arborescence", js=arb["js"],
                 draws=cat_draws["arborescence_categorical"],
                 sampler=lambda r, lam=arb["theta"]: sst.sample_arborescence_categorical(
                     self.graph_arb, 0, lam, r)),
            dict(name="topk_categorical", twin="k_subsets", js=ksub["js"],
                 draws=cat_draws["topk_categorical"],
                 sampler=lambda r, th=ksub["theta"]: sst.sample_topk_without_replacement(
                     th, 10, r)),
        ]
        self.hits = {}  # name -> per-coordinate count of ones over all draws
        self.totals = {}
        self.first_tables = {}  # round-0 tables, replayed exactly in finish()
        self.per_draw = {k: [] for k in PERTURB_MAP_KINDS}  # (raw_s, factor, draws)

    def _tally(self, name, js, table, draws, raw, factor):
        rows = np.array(table["support"], dtype=np.int64)
        counts = np.array(table["counts"], dtype=np.int64)
        self.checks.expect(table["total"] == draws and counts.sum() == draws,
                           f"{name}: table total != {draws}")
        self.checks.expect(bool(_valid_rows(name, js, rows)), f"{name}: invalid vertex in table")
        self.hits[name] = self.hits.get(name, 0) + counts @ rows
        self.totals[name] = self.totals.get(name, 0) + draws
        self.per_draw[name].append((raw, factor, draws))

    def run_round(self, r, timed):
        attempted = 0
        for i, s in enumerate(self.structs):
            seed = call_seed(self.seed, r, i)
            argv = ["sample", "--spec", s["spec"], "--noise", s["noise"],
                    "--seed", str(seed), "--draws", str(s["draws"])]

            def call(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = sst.cli.run(argv)
                return code, buf.getvalue()

            (code, text), raw, factor = timed(call)
            attempted += s["draws"]
            self.checks.expect(code == 0, f"{s['name']}: sst sample exited {code}")
            if code != 0:
                continue
            table = json.loads(text)
            self._tally(s["name"], s["js"], table, s["draws"], raw, factor)
            if r == 0:
                self.first_tables[s["name"]] = (seed, table)
        for j, c in enumerate(self.categorical):
            seed = call_seed(self.seed, r, len(self.structs) + j)
            table, raw, factor = timed(
                lambda c=c, seed=seed: sst.mc_frequencies(c["sampler"], c["draws"], seed))
            attempted += c["draws"]
            self._tally(c["name"], c["js"], table.to_dict(), c["draws"], raw, factor)
        return attempted, 0

    def _replay(self, s, seed, table):
        """Replay the documented seed stream through the oracles' transforms and maximizers."""
        js = s["js"]
        base = orc.replay_base(np.random.default_rng(seed), _dim(js), s["draws"])
        name = s["name"]
        tally = {}
        for b in base:
            u = orc.transform(s["family"], s["theta"], b)
            if name == "one_hot":
                v = orc.argmax_one_hot(u)
            elif name == "k_subsets":
                v = orc.argmax_k_subset(u, js["k"])
            elif name == "corr_k_subsets":
                v = orc.argmax_chain(u, js["n"], js["k"])
            elif name == "matching":
                v = orc.argmax_matching(u, js["n"])
            elif name == "spanning_tree":
                v = orc.argmax_tree(js["graph"]["edges"], js["graph"]["num_nodes"], u)
            else:
                v = orc.argmax_arborescence(js["graph"]["edges"], js["graph"]["num_nodes"],
                                            js["root"], u)
            key = tuple(int(x) for x in v)
            tally[key] = tally.get(key, 0) + 1
        keys = sorted(tally)
        want = {"support": [list(k) for k in keys], "counts": [tally[k] for k in keys],
                "total": s["draws"]}
        return want == table

    def finish(self):
        for s in self.structs:
            if s["name"] in self.first_tables:
                seed, table = self.first_tables[s["name"]]
                self.checks.expect(self._replay(s, seed, table),
                                   f"{s['name']}: table differs from the replayed oracle")
        if "one_hot" in self.hits:
            p, stat = orc.chi_square_p(self.hits["one_hot"], orc.softmax(self.structs[0]["theta"]))
            self.checks.expect(p >= 1e-6, f"one_hot: chi-square {stat:.1f} p={p:.2e} vs softmax")
        for c in self.categorical:
            a, b = c["twin"], c["name"]
            if a in self.hits and b in self.hits:
                z = orc.max_z_two_sample(self.hits[a], self.totals[a], self.hits[b], self.totals[b])
                self.checks.expect(z <= 5.0, f"{b}: frequencies differ from {a} by {z:.2f} s.e.")
        return self.checks.failures


# --- relaxed_step -------------------------------------------------------------


class RelaxedStep:
    """The SST estimator's step at t = 1: draw Gumbel utilities, relax with the
    exponential-family entropy, pull a direction back with ``fd_vjp``.
    One op is one step."""

    name = "relaxed_step"
    T = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.checks = Checks()
        rng = np.random.default_rng(seed)
        k10 = sst.Graph(10, tuple(complete_edges(10)))
        d8 = sst.Graph(8, tuple(complete_arcs(8)), directed=True)
        self.kinds = [
            ("spanning_tree", sst.StructureSpec("spanning_tree", graph=k10)),
            ("arborescence", sst.StructureSpec("arborescence", graph=d8, root=0)),
            ("k_subsets", sst.StructureSpec("k_subsets", n=100, k=10)),
            ("corr_k_subsets", sst.StructureSpec("corr_k_subsets", n=50, k=10)),
        ]
        self.noise = [sst.UtilitySpec("gumbel", rng.uniform(-1.0, 1.0, spec.dim))
                      for _, spec in self.kinds]
        self.rspec = sst.RelaxationSpec("expfam_entropy", temperature=self.T)

    def run_round(self, r, timed):
        for i, ((name, spec), uspec) in enumerate(zip(self.kinds, self.noise)):
            seed = call_seed(self.seed, r, i)
            d = np.random.default_rng(seed + 1).normal(size=spec.dim)

            def step(spec=spec, uspec=uspec, seed=seed, d=d):
                u = sst.draw(uspec, np.random.default_rng(seed)).u
                x = sst.relax(spec, self.rspec, u).x
                g = sst.fd_vjp(spec, self.rspec, u, d)
                return u, x, g

            (u, x, g), _, _ = timed(step)
            self._check(name, spec, u, x, g, d)
        return len(self.kinds), 0

    def _check(self, name, spec, u, x, g, d):
        t = self.T
        expect = self.checks.expect
        if name == "spanning_tree":
            edges, nodes = spec.graph.edges, spec.graph.num_nodes
            want = orc.kirchhoff_marginals(edges, nodes, u, t)[0]
            total = nodes - 1
            cov = orc.transfer_current_covariance(edges, nodes, u, t)
            err = float(np.abs(g - cov @ d / t).max())
            expect(err <= 1e-6, f"{name}: VJP off the transfer-current covariance by {err:.2e}")
        elif name == "arborescence":
            edges, nodes = spec.graph.edges, spec.graph.num_nodes
            want = orc.tutte_marginals(edges, nodes, spec.root, u, t)
            total = nodes - 1
        elif name == "k_subsets":
            want = orc.k_subset_marginals(u / t, spec.k)
            total = spec.k
        else:
            want = orc.chain_marginals(u / t, spec.n, spec.k)
            total = spec.k
        err = float(np.abs(x - want).max())
        expect(err <= 1e-8, f"{name}: marginals off the oracle by {err:.2e}")
        # the coordinates whose sum the structure fixes (corr_k_subsets: the
        # n element indicators; its pair coordinates have no fixed sum)
        fixed = slice(0, spec.n) if name == "corr_k_subsets" else slice(None)
        s = float(x[fixed].sum())
        expect(abs(s - total) <= 1e-8, f"{name}: marginals sum to {s!r}, not {total}")
        expect(abs(float(g[fixed].sum())) <= 1e-6, f"{name}: 1.g = {float(g[fixed].sum()):.2e}")

    def finish(self):
        return self.checks.failures


# --- anneal -------------------------------------------------------------------

SCHEDULE = np.geomspace(1.0, 0.03, 6)
SINKHORN_TOL = 1e-8
SINKHORN_ITER = 20_000
# Entries in [-0.15, 0.15] keep every 8x8 solve on the schedule convergent:
# 300 seeds needed at most 178 of the 20 000 iterations at t = 0.03.
SINKHORN_SPREAD = 0.15
SINKHORN_PER_ROUND = 20
BISECT_REGS = ("euclidean", "binary_entropy", "categorical_entropy")
BISECT_PER_ROUND = 45  # instances per regularizer; each runs the whole schedule


def failing_sinkhorn_instance():
    """A standard-normal 8x8 matrix that Sinkhorn cannot bring to 1e-8 at t = 0.03
    within 2e4 iterations (it stops near 7e-5).  Fixed: it does not depend on
    the seed, so the failure repeats on every run."""
    return np.random.default_rng(0).standard_normal((8, 8))


class Anneal:
    """``relax`` along a falling temperature schedule with the iterative solvers.
    One op is one solve, with its analytic Jacobian where it has one."""

    name = "anneal"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.checks = Checks()
        self.matching = sst.StructureSpec("matching", n=8)
        self.ksub = sst.StructureSpec("k_subsets", n=200, k=20)
        self.u_fail = failing_sinkhorn_instance().reshape(-1)
        self.sk_specs = [sst.RelaxationSpec("shannon", temperature=float(t),
                                            tol=SINKHORN_TOL, max_iter=SINKHORN_ITER)
                         for t in SCHEDULE]
        self.bis_specs = {reg: [sst.RelaxationSpec(reg, temperature=float(t)) for t in SCHEDULE]
                          for reg in BISECT_REGS}

    def run_round(self, r, timed):
        attempted = failed = 0
        rng = np.random.default_rng(call_seed(self.seed, r))
        for _ in range(SINKHORN_PER_ROUND):
            u = rng.uniform(-SINKHORN_SPREAD, SINKHORN_SPREAD, 64)
            points, _, _ = timed(
                lambda u=u: [sst.relax(self.matching, rs, u) for rs in self.sk_specs])
            attempted += len(points)
            for rs, p in zip(self.sk_specs, points):
                self._check_sinkhorn(u, rs.temperature, p)

        def fail_call():
            # keep only the residual: the exception's traceback would hold
            # this round's frames, and their arrays, until a garbage collection
            try:
                sst.relax(self.matching, self.sk_specs[-1], self.u_fail)
            except sst.ConvergenceError as exc:
                return exc.residual
            return None

        residual, _, _ = timed(fail_call)
        attempted += 1
        failed += 1
        self.checks.expect(residual is not None and residual > SINKHORN_TOL,
                           "sinkhorn: the known non-convergent instance did not raise")
        for reg in BISECT_REGS:
            for b in range(BISECT_PER_ROUND):
                u = rng.normal(size=self.ksub.dim)
                specs = self.bis_specs[reg]
                out, _, _ = timed(lambda u=u, specs=specs: [
                    (sst.relax(self.ksub, rs, u), sst.analytic_jacobian(self.ksub, rs, u))
                    for rs in specs])
                attempted += len(out)
                for i, (rs, (p, jac)) in enumerate(zip(specs, out)):
                    self._check_bisection(reg, rs, u, p.x, jac, fd=(b == 0), rng=rng)
        return attempted, failed

    def _check_sinkhorn(self, u, t, p):
        x = p.x.reshape(8, 8)
        expect = self.checks.expect
        dev = max(np.abs(x.sum(0) - 1).max(), np.abs(x.sum(1) - 1).max())
        expect(dev <= SINKHORN_TOL, f"sinkhorn t={t:.3g}: marginal deviation {dev:.2e}")
        lg = np.log(x) - u.reshape(8, 8) / t
        res = lg - lg.mean(1, keepdims=True) - lg.mean(0, keepdims=True) + lg.mean()
        expect(np.abs(res).max() <= 1e-9,
               f"sinkhorn t={t:.3g}: log x - U/t is not a_i + b_j ({np.abs(res).max():.2e})")

    def _check_bisection(self, reg, rs, u, x, jac, fd, rng):
        t = rs.temperature
        k = self.ksub.k
        z = u / t
        expect = self.checks.expect
        tag = f"{reg} t={t:.3g}"
        expect(bool(((x >= 0) & (x <= 1)).all()), f"{tag}: point outside [0,1]")
        expect(abs(float(x.sum()) - k) <= 1e-9, f"{tag}: sum {float(x.sum())!r} != {k}")
        scale = max(1.0, float(np.abs(z).max()))
        # KKT with one shift nu: x_i = h(z_i - nu) for the regularizer's h
        if reg == "euclidean":
            free = (x > 0) & (x < 1)
            if free.any():
                nu = z[free] - x[free]
                expect(np.ptp(nu) <= 1e-8 * scale, f"{tag}: shifts disagree by {np.ptp(nu):.2e}")
                nu0 = float(np.median(nu))
                expect(bool((z[x == 0] - nu0 <= 1e-8 * scale).all()
                            and (z[x == 1] - nu0 >= 1 - 1e-8 * scale).all()),
                       f"{tag}: clamped coordinates on the wrong side")
            else:
                expect(z[x == 0].max(initial=-np.inf) <= z[x == 1].min(initial=np.inf) - 1 + 1e-8 * scale,
                       f"{tag}: no shift fits the clamped point")
        elif reg == "binary_entropy":
            mid = (x > 1e-6) & (x < 1 - 1e-6)
            nu = z[mid] - (np.log(x[mid]) - np.log1p(-x[mid]))
            expect(mid.any() and np.ptp(nu) <= 1e-7 * scale,
                   f"{tag}: shifts disagree by {np.ptp(nu) if mid.any() else np.inf:.2e}")
        else:
            free = (x < 1) & (x > 1e-300)
            nu = z[free] - np.log(x[free])
            expect(free.any() and np.ptp(nu) <= 1e-8 * scale,
                   f"{tag}: shifts disagree by {np.ptp(nu) if free.any() else np.inf:.2e}")
            if free.any():
                expect(bool((z[x == 1] - float(np.median(nu)) >= -1e-8 * scale).all()),
                       f"{tag}: capped coordinates below the shift")
        jmax = max(1.0, float(np.abs(jac).max()))
        expect(float(np.abs(jac - jac.T).max()) <= 1e-12 * jmax, f"{tag}: Jacobian not symmetric")
        expect(float(np.abs(jac.sum(1)).max()) <= 1e-9 * jmax, f"{tag}: J.1 != 0")
        if fd:
            self._check_fd(reg, rs, u, x, jac, rng, tag)

    def _check_fd(self, reg, rs, u, x, jac, rng, tag):
        """J.v against a central difference of ``relax`` along a random v.

        The step stays below a quarter of the distance from ``z - nu`` to the
        nearest kink of the regularizer's map, so no coordinate changes regime.
        """
        t = rs.temperature
        v = rng.normal(size=u.shape[0])
        v /= np.abs(v).max()
        z = u / t
        free = (x > 0) & (x < 1)
        if reg == "binary_entropy":
            gap = np.inf
        elif not free.any():
            # every coordinate clamped (euclidean only): x stays put while the
            # interval of feasible shifts stays open
            gap = float(z[x == 1].min() - 1.0 - z[x == 0].max())
        else:
            nu = float(np.median(z[free] - (x[free] if reg == "euclidean" else np.log(x[free]))))
            kinks = (0.0, 1.0) if reg == "euclidean" else (0.0,)
            gap = min(float(np.abs(z - nu - c).min()) for c in kinks)
        eps = min(1e-6, 0.25 * gap * t / 2.0)
        xp = sst.relax(self.ksub, rs, u + eps * v).x
        xm = sst.relax(self.ksub, rs, u - eps * v).x
        fd = (xp - xm) / (2 * eps)
        jv = jac @ v
        err = float(np.abs(fd - jv).max())
        expect_tol = 1e-4 * max(1.0, float(np.abs(jv).max())) + 1e-10 / eps
        self.checks.expect(err <= expect_tol,
                           f"{tag}: J.v off the central difference by {err:.2e} (eps {eps:.1e})")

    def finish(self):
        return self.checks.failures


WORKLOADS = {w.name: w for w in (PerturbMap, RelaxedStep, Anneal)}
