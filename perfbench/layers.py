"""Per-layer numbers for the traced run.

Each probe times calls into one module's public functions, each call
inside a span, and reads its metric from the span.  Entry points are
looked up by name: when one is gone, the metrics that need it are
reported absent with the reason, and the other probes still run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import time
from typing import Callable

from tracing import duration
from workloads import VERIFY_SUITES, Context, cpu_seconds

CKPT_REPORTED = range(16, 24)  # census.ckpt_genus_s.g16 .. g23


class Absent(Exception):
    """A metric that cannot be measured on this version of the program."""


def entry(module: str, name: str):
    """sgcensus.<module>.<name>, where name may be dotted (Class.method)."""
    try:
        obj = importlib.import_module(f"sgcensus.{module}")
    except ImportError as exc:
        raise Absent(f"sgcensus.{module} cannot be imported: {exc}") from None
    for part in name.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise Absent(f"sgcensus.{module}.{name} is gone")
    return obj


class Report:
    """Metric values, metrics absent with a reason, and intermediate
    results (kept) that one probe hands to another."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        self.kept: dict = {}

    def probe(self, names: list[str], fn: Callable[[], dict], needs: tuple[str, ...] = ()) -> None:
        missing = [k for k in needs if k not in self.kept]
        try:
            if missing:
                raise Absent("needs the " + ", ".join(missing) + " of an earlier probe")
            self.values.update(fn())
        except Absent as exc:
            for name in names:
                self.absent[name] = str(exc)

    def derive(self, name: str, fn: Callable, *inputs: str) -> None:
        missing = [i for i in inputs if i not in self.values]
        if missing:
            self.absent[name] = "needs " + ", ".join(missing)
        else:
            self.values[name] = fn(*(self.values[i] for i in inputs))

    def checks(self) -> list[bool]:
        """Consistency between layers, counted with the output checks."""
        kept = self.kept
        out = []
        if "enumeration.nodes" in self.values and "rows" in kept:
            out.append(self.values["enumeration.nodes"] == sum(r.n for r in kept["rows"]))
        if "ckpt_equal" in kept:
            out.append(kept["ckpt_equal"])
        if "komeda_diffs" in kept:
            out.append(not kept["komeda_diffs"])
        out += [rc == 0 for key, rc in kept.items() if key.startswith("verify_")]
        return out


def probe_all(ctx: Context, tracer) -> Report:
    """Every probe, whatever the workload of the run."""
    size = ctx.size
    g_max = size.census_gmax
    rep = Report()
    kept = rep.kept

    def walk():
        count_matrix = entry("enumeration", "count_matrix")
        with tracer.span("enumeration.count_matrix", g_max=g_max) as sp:
            table = count_matrix(g_max)
        return {
            "enumeration.walk_s": duration(sp),
            "enumeration.nodes": sum(c for (_, g), c in table.items() if g >= 1),
        }

    def visit():
        enumerate_by_genus = entry("enumeration", "enumerate_by_genus")
        with tracer.span("enumeration.enumerate_by_genus", g_max=size.visit_gmax) as sp:
            enumerate_by_genus(size.visit_gmax, lambda node: None)
        return {"enumeration.visit_s": duration(sp)}

    def reach():
        # nodes where the size bound leaves some n >= 2 open: genus >= 2
        # and F = 2g - 1, or (g - 1) // (2g - 1 - F) >= 2
        mfg_counts = entry("enumeration", "mfg_counts")
        with tracer.span("enumeration.mfg_counts", g_max=g_max):
            mfg = mfg_counts(g_max)
        reached = 0
        for (_, f, g), c in mfg.items():
            d = 2 * g - 1 - f
            if g >= 2 and (d == 0 or (g - 1) // d >= 2):
                reached += c
        return {"buchweitz.tests_reached": reached}

    def census_passes():
        config = entry("census", "CensusConfig")
        run_census = entry("census", "run_census")
        with tracer.span("census.run_census", g_max=g_max, nb_n_cap=2) as cap2:
            run_census(config(g_max=g_max, nb_n_cap=2))
        with tracer.span("census.run_census", g_max=g_max) as full:
            rows = run_census(config(g_max=g_max))
        kept["rows"] = rows
        return {
            "census.cap2_s": duration(cap2),
            "census.full_s": duration(full),
            "buchweitz.nb_any": sum(r.nb_any for r in rows),
            "buchweitz.capped": sum(r.nb_capped for r in rows),
        }

    def write():
        write_csv = entry("census", "write_csv")
        write_jsonl = entry("census", "write_jsonl")
        with tracer.span("census.write_csv+write_jsonl") as sp:
            write_csv(kept["rows"], str(ctx.out_dir / "layers.csv"))
            write_jsonl(kept["rows"], str(ctx.out_dir / "layers.jsonl"))
        return {"census.write_s": duration(sp)}

    def check():
        komeda_compare = entry("census", "komeda_compare")
        if g_max < 25:
            raise Absent(f"komeda_compare needs rows through genus 25; this run stops at {g_max}")
        with tracer.span("census.komeda_compare") as sp:
            kept["komeda_diffs"] = komeda_compare(kept["rows"])
        return {"census.check_s": duration(sp)}

    def parallel():
        config = entry("census", "CensusConfig")
        run_census = entry("census", "run_census")
        c0 = cpu_seconds()
        with tracer.span("census.run_census", g_max=g_max, threads=2) as sp:
            run_census(config(g_max=g_max, threads=2))
        cpu = cpu_seconds() - c0
        return {"census.par_wall_s": duration(sp), "census.par_cpu_util": cpu / (2 * duration(sp))}

    def checkpoint():
        config = entry("census", "CensusConfig")
        run_census = entry("census", "run_census")
        load_checkpoint = entry("census", "load_checkpoint")
        top = size.ckpt_gmax
        path = ctx.out_dir / "layers.ckpt"
        path.unlink(missing_ok=True)
        out = {}
        with tracer.span("census.checkpoint_extend", g_max=top) as fresh:
            for g in range(1, top + 1):
                with tracer.span("census.run_census", g_max=g, checkpoint=True) as sp:
                    rows = run_census(config(g_max=g, checkpoint_path=str(path)))
                if g in CKPT_REPORTED:
                    out[f"census.ckpt_genus_s.g{g}"] = duration(sp)
        with tracer.span("census.load_checkpoint") as load:
            load_checkpoint(str(path), config(g_max=top))
        with tracer.span("census.run_census", g_max=top) as single:
            single_rows = run_census(config(g_max=top))
        kept["ckpt_equal"] = rows == single_rows
        out.update({
            "census.ckpt_load_s": duration(load),
            "census.ckpt_bytes": os.path.getsize(path),
            "census.ckpt_rewalk_ratio": duration(fresh) / duration(single),
        })
        return out

    def from_gaps():
        from_gaps = entry("core", "Semigroup.from_gaps")
        with tracer.span("core.Semigroup.from_gaps", n=len(ctx.sample)) as sp:
            kept["semigroups"] = [from_gaps(s.gaps) for s in ctx.sample]
        return {"core.from_gaps_s": duration(sp)}

    def over_sample(metric: str, entries: list[tuple[str, str]], body: Callable) -> Callable:
        """A probe timing body(semigroups, *functions) in one span."""
        def probe():
            fns = [entry(*e) for e in entries]
            label = "+".join(f"{m}.{n}" for m, n in entries)
            with tracer.span(label, n=len(kept["semigroups"])) as sp:
                body(kept["semigroups"], *fns)
            return {metric: duration(sp)}
        return probe

    def each(sgs, fn):
        for s in sgs:
            fn(s)

    def classes(sgs, frobenius_class, eisenbud_harris, type_ak, classes):
        for s in sgs:
            eisenbud_harris(s)
            if frobenius_class(s) is classes.MID:
                type_ak(s)

    def box(sgs, to_partition, to_semigroup):
        for s in sgs:
            if s.frobenius < 2 * s.multiplicity:
                to_semigroup(to_partition(s), s.genus, s.multiplicity)

    def parse():
        build_parser = entry("cli", "build_parser")
        per_call = []
        with tracer.span("cli.build_parser+parse_args", n=len(ctx.sample)):
            for s in ctx.sample:
                t = time.perf_counter()
                build_parser().parse_args(["classify", "--gaps", s.arg])
                per_call.append((time.perf_counter() - t) * 1e3)
        return {"cli.parse_ms": statistics.median(per_call)}

    def suite(name: str) -> Callable:
        def probe():
            main = entry("cli", "main")
            argv = ["verify", name]
            if size.verify_gmax is not None:
                argv += ["--gmax", str(size.verify_gmax)]
            with tracer.span(f"checks.{name}") as sp, contextlib.redirect_stdout(io.StringIO()):
                kept[f"verify_{name}"] = main(argv)
            return {f"checks.{name}_s": duration(sp)}
        return probe

    rep.probe(["enumeration.walk_s", "enumeration.nodes"], walk)
    rep.probe(["enumeration.visit_s"], visit)
    rep.probe(["buchweitz.tests_reached"], reach)
    rep.probe(["census.cap2_s", "census.full_s", "buchweitz.nb_any", "buchweitz.capped"],
              census_passes)
    rep.derive("census.flags_n2_s", lambda cap2, walk_s: cap2 - walk_s,
               "census.cap2_s", "enumeration.walk_s")
    rep.derive("census.sumset_n3up_s", lambda full, cap2: full - cap2,
               "census.full_s", "census.cap2_s")
    rep.derive("buchweitz.fail_ratio", lambda nb, reached: nb / reached,
               "buchweitz.nb_any", "buchweitz.tests_reached")
    rep.probe(["census.write_s"], write, needs=("rows",))
    rep.probe(["census.check_s"], check, needs=("rows",))
    rep.probe(["census.par_wall_s", "census.par_cpu_util"], parallel)
    rep.derive("census.par_speedup", lambda full, par: full / par,
               "census.full_s", "census.par_wall_s")
    ckpt_genus = [f"census.ckpt_genus_s.g{g}" for g in CKPT_REPORTED]
    rep.probe(ckpt_genus + ["census.ckpt_load_s", "census.ckpt_bytes",
                            "census.ckpt_rewalk_ratio"], checkpoint)
    for name in ckpt_genus:
        if name not in rep.values and name not in rep.absent:
            rep.absent[name] = f"this run extends the checkpoint only to genus {size.ckpt_gmax}"

    rep.probe(["core.from_gaps_s"], from_gaps)
    rep.probe(["core.min_gens_s"], over_sample(
        "core.min_gens_s", [("core", "Semigroup.minimal_generators")], each), needs=("semigroups",))
    rep.probe(["kunz.vector_s"], over_sample(
        "kunz.vector_s", [("core", "Semigroup.kunz_vector")], each), needs=("semigroups",))
    rep.probe(["classify.class_s"], over_sample(
        "classify.class_s",
        [("classify", "frobenius_class"), ("classify", "eisenbud_harris"),
         ("classify", "type_ak"), ("classify", "FrobeniusClass")],
        classes), needs=("semigroups",))
    rep.probe(["buchweitz.classify_s"], over_sample(
        "buchweitz.classify_s", [("buchweitz", "classify_buchweitz")], each),
        needs=("semigroups",))
    rep.probe(["partitions.box_s"], over_sample(
        "partitions.box_s",
        [("partitions", "semigroup_to_partition"), ("partitions", "partition_to_semigroup")],
        box), needs=("semigroups",))
    rep.probe(["cli.parse_ms"], parse)
    for name in VERIFY_SUITES:
        rep.probe([f"checks.{name}_s"], suite(name))
    return rep
