package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import repro.BipartiteGen
import repro.bipartite.{BipartiteGraph, BUP, ParB, ReceiptLocal, TipResult}
import repro.core.{SparkButterfly, SparkReceipt}

final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean, workDir: Path) {
  def report: Path = workDir.resolve(s"report-${workload.name}-seed$seed-trace${if (trace) 1 else 0}.json")
}

object Opts {
  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, s"expected --key value pairs, got: ${args.mkString(" ")}")
    val kv = args.grouped(2).map { a =>
      require(a(0).startsWith("--"), s"expected --key, got ${a(0)}")
      a(0).drop(2) -> a(1)
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(Workloads.byName(get("workload")), get("seed").toLong, get("seconds").toDouble,
      get("trace") match { case "0" => false; case "1" => true; case t => throw new IllegalArgumentException(s"--trace $t") },
      Paths.get(get("work-dir")))
  }
}

/** A row ready to decompose, with the checksum of BUP's tips. */
final case class Prepared(row: Row, g: BipartiteGraph, ref: String)

/** A checked decomposition: its result, time and heap allocation. */
final case class Timed[A](value: A, lap: Lap, allocBytes: Long) {
  def ms: Double = lap.adjustedMs
}

/** The RECEIPT benchmark. One run sets the workload up [[Bench.SetupReps]]
  * times, makes one warm-up pass, then either times whole passes over the
  * workload's rows for `--seconds` (`--trace 0`, end-to-end metrics) or makes
  * one traced pass that calls each layer on its own (`--trace 1`, per-layer
  * metrics). Every decomposition is checked against BUP's tips. The report,
  * with samples, spans and provenance, goes to `Opts.report`; `run.py`
  * prints its summary.
  */
object Bench {
  val P = 15
  val SetupReps = 9
  /** Timed passes per run at least, even when `--seconds` is shorter. */
  val MinPasses = 3
  /** Untraced passes made by a traced run, for GC counts and overhead. */
  val UntracedPasses = 2

  def main(args: Array[String]): Unit = {
    val bench = new Bench(Opts.parse(args))
    val report = bench.run()
    Files.createDirectories(bench.o.workDir)
    Files.write(bench.o.report, Json(report).getBytes(UTF_8))
    System.err.println(s"[perfbench] attempted=${bench.attempted} failed=${bench.failed} report=${bench.o.report}")
    bench.errors.foreach(e => System.err.println(s"[perfbench] FAILED $e"))
    sys.exit(if (bench.failed == 0) 0 else 1)
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  private def metric(v: Double, unit: String) = ListMap("value" -> v, "unit" -> unit)
}

final class Bench(val o: Opts) {
  import Bench._

  val threads: Int = Runtime.getRuntime.availableProcessors()
  val cfg: ReceiptLocal.Config = ReceiptLocal.Config(P = P, threads = threads)
  val master = s"local[$threads]"
  var attempted = 0
  var failed = 0
  val errors: ArrayBuffer[String] = ArrayBuffer()
  private val setupTracer = new Tracer
  private val refSources = ArrayBuffer[ListMap[String, Any]]()
  private val localMetrics = scala.collection.mutable.Map[String, ReceiptLocal.Metrics]()

  private val threadBean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcTotals(): (Long, Long) = {
    val bs = ManagementFactory.getGarbageCollectorMXBeans.toArray(Array.empty[java.lang.management.GarbageCollectorMXBean])
    (bs.map(b => math.max(0L, b.getCollectionTime)).sum, bs.map(b => math.max(0L, b.getCollectionCount)).sum)
  }

  private def fail(msg: String): Unit = { failed += 1; errors += msg }

  /** Runs one decomposition and checks its tips against `ref`. */
  def checked[A](label: String, ref: String, tips: A => Array[Long])(f: => A): Option[Timed[A]] = {
    attempted += 1
    try {
      val a0 = threadBean.getTotalThreadAllocatedBytes
      val (r, lap) = Clock.time(f)
      val bytes = threadBean.getTotalThreadAllocatedBytes - a0
      if (Reference.checksum(tips(r)) == ref) Some(Timed(r, lap, bytes))
      else { fail(s"$label: tips differ from BUP's"); None }
    } catch { case NonFatal(e) => fail(s"$label: $e"); None }
  }

  // ---------------------------------------------------------------- run --

  def run(): ListMap[String, Any] = {
    val rows = o.workload.rows(o.seed)
    val phases = ArrayBuffer[(String, Double)]()
    def phase[A](name: String)(f: => A): A = {
      val t0 = System.nanoTime()
      try f finally phases += name -> (System.nanoTime() - t0) / 1e9
    }
    val setups = phase("setup")((1 to SetupReps).map(_ => setupOnce(rows)))
    val setupS = setups.map(_._2)
    val prepared = phase("references")(withRefs(setups.last._1))
    phase("warmup")(pass(prepared))
    val body = phase("measure") {
      if (o.trace) tracedRun(prepared) else measuredRun(prepared, setupS)
    }
    body ++ ListMap(
      "correct" -> (failed == 0), "attempted" -> attempted, "failed" -> failed,
      "errors" -> errors.toSeq,
      "provenance" -> provenance(rows),
      "references" -> refSources.toSeq,
      "setup_samples_s" -> setupS,
      "phases_s" -> ListMap(phases.toSeq: _*),
      "setup_spans" -> spansJson(setupTracer))
  }

  /** Generates (and transposes) every row's graph; returns the graphs and
    * the seconds it took (steal-adjusted, see [[Lap.adjustedMs]]).
    */
  private def setupOnce(rows: Seq[Row]): (Seq[(Row, BipartiteGraph)], Double) = {
    val (built, lap) = Clock.time {
      setupTracer.span("setup")(rows.map(row => row -> setupTracer.span("graph.gen")(row.graph())))
    }
    (built, lap.adjustedMs / 1e3)
  }

  private def withRefs(built: Seq[(Row, BipartiteGraph)]): Seq[Prepared] =
    built.map { case (row, g) =>
      val ref = Reference.get(row, g, o.workDir.resolve("ref-cache"), threads)
      refSources += ListMap("row" -> row.name, "graph_seed" -> row.cfg.seed, "m" -> g.m,
        "source" -> ref.source, "bup_ms" -> ref.bupMs)
      Prepared(row, g, ref.checksum)
    }

  private def provenance(rows: Seq[Row]): ListMap[String, Any] = {
    val sparkUsed = o.trace && o.workload.sparkRows.nonEmpty
    ListMap(
      "workload" -> o.workload.name, "seed" -> o.seed, "seconds" -> o.seconds, "trace" -> o.trace,
      "graph_seeds" -> ListMap(rows.map(r => r.name -> r.cfg.seed): _*),
      "threads" -> threads, "P" -> P,
      "java_version" -> System.getProperty("java.version"), "jvm" -> System.getProperty("java.vm.name"),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.toArray.toSeq.map(_.toString),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "spark_master" -> (if (sparkUsed) master else null),
      "spark_version" -> (if (sparkUsed) org.apache.spark.SPARK_VERSION else null),
      "setup_reps" -> SetupReps)
  }

  private def spansJson(tr: Tracer): Seq[ListMap[String, Any]] =
    tr.spans.map(s => ListMap("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counts" -> s.counts))

  // ------------------------------------------------------------- passes --

  /** One decomposition of every row by the workload's engines. Returns the
    * pass's sample (RECEIPT sums over rows plus per-row times), or None when
    * any decomposition failed.
    */
  def pass(rows: Seq[Prepared]): Option[ListMap[String, Double]] = {
    val out = ArrayBuffer[(String, Double)]()
    var ok = true
    def timed[A](label: String, p: Prepared, tips: A => Array[Long])(f: => A)(record: Timed[A] => Unit): Unit =
      checked(s"$label ${p.row.name}", p.ref, tips)(f).fold { ok = false }(record)
    rows.foreach { p =>
      timed("RECEIPT", p, (r: ReceiptLocal.Result) => r.tips)(ReceiptLocal.run(p.g, cfg)) { t =>
        localMetrics(p.row.name) = t.value.metrics
        out ++= Seq("decomp_s" -> t.ms / 1e3, "alloc_mb" -> t.allocBytes / 1e6, "wall_s" -> t.lap.wallMs / 1e3,
          "cpu_s" -> t.lap.cpuMs / 1e3, "steal_s" -> t.lap.stealMs / 1e3,
          "wedges" -> t.value.metrics.totalWedges.toDouble, "rounds" -> t.value.metrics.rounds.toDouble,
          s"${p.row.name}.ms" -> t.ms)
      }
      if (o.workload.baselines) {
        timed("ParB", p, (r: TipResult) => r.tips)(ParB.run(p.g, threads)) { t =>
          out ++= Seq("parb_s" -> t.ms / 1e3, s"${p.row.name}.parb_ms" -> t.ms)
        }
        timed("BUP", p, (r: TipResult) => r.tips)(BUP.run(p.g)) { t =>
          out ++= Seq("bup_s" -> t.ms / 1e3, s"${p.row.name}.bup_ms" -> t.ms)
        }
      }
    }
    if (!ok) None
    else Some(ListMap(out.map(_._1).distinct.toSeq.map(k => k -> out.filter(_._1 == k).map(_._2).sum): _*))
  }

  private def measuredRun(prepared: Seq[Prepared], setupS: Seq[Double]): ListMap[String, Any] = {
    val samples = ArrayBuffer[ListMap[String, Double]]()
    val t0 = System.nanoTime()
    var passes = 0
    while (passes < MinPasses || (System.nanoTime() - t0) / 1e9 < o.seconds) {
      pass(prepared).foreach(samples += _)
      passes += 1
    }
    def med(k: String) = median(samples.map(_(k)).toSeq)
    val baselines =
      if (o.workload.baselines) ListMap("parb_s" -> med("parb_s"), "bup_s" -> med("bup_s"))
      else ListMap.empty[String, Double]
    ListMap(
      "metrics" -> ListMap(
        "decomp_s" -> metric(med("decomp_s"), "s"),
        "setup_s" -> metric(median(setupS), "s"),
        "alloc_mb" -> metric(med("alloc_mb"), "MB")),
      "sample_counts" -> ListMap("decomp_s" -> samples.length, "alloc_mb" -> samples.length, "setup_s" -> setupS.length),
      "baselines" -> baselines,
      "samples" -> samples.toSeq)
  }

  // ------------------------------------------------------------- traced --

  /** Untraced passes for GC counts and the overhead baseline, then one pass
    * in which each layer is called on its own inside a span.
    */
  private def tracedRun(prepared: Seq[Prepared]): ListMap[String, Any] = {
    val untraced = (1 to UntracedPasses).flatMap { _ =>
      val (gcMs0, gcN0) = gcTotals()
      val s = pass(prepared)
      val (gcMs1, gcN1) = gcTotals()
      s.map(_ ++ ListMap("gc_ms" -> (gcMs1 - gcMs0).toDouble, "gc_count" -> (gcN1 - gcN0).toDouble))
    }
    val tr = new Tracer
    val rowTraces = ArrayBuffer[RowTrace]()
    val parb = ArrayBuffer[TipResult]()
    val bup = ArrayBuffer[TipResult]()
    val sparkRuns = ArrayBuffer[(SparkReceipt.Result, JobCounter, Double)]()

    tr.span("traced") {
      prepared.foreach { p =>
        tr.span(p.row.name) {
          traceLocal(tr, p).foreach(rowTraces += _)
          if (o.workload.baselines) {
            checked(s"ParB ${p.row.name}", p.ref, (r: TipResult) => r.tips)(tr.span("parb")(ParB.run(p.g, threads)))
              .foreach(parb += _.value)
            checked(s"BUP ${p.row.name}", p.ref, (r: TipResult) => r.tips)(tr.span("bup")(BUP.run(p.g)))
              .foreach(bup += _.value)
          }
        }
      }
      val sparkRows = prepared.filter(p => o.workload.sparkRows.contains(p.row.name))
      if (sparkRows.nonEmpty) sparkRuns ++= traceSpark(tr, sparkRows)
    }

    def named(n: String) = tr.named(n)
    def sumMs(n: String) = named(n).map(_.ms).sum
    def sumCount(n: String, k: String) = named(n).map(_.counts.getOrElse(k, 0.0)).sum
    val subsets = named("fd.subset")
    val critical = subsets.sortBy(s => -s.counts("wedges")).headOption
    val genMs = setupTracer.named("setup").map(s => setupTracer.children(s).map(_.ms).sum)
    // spans hold raw wall time, so compare them with the untraced raw wall time
    val overheadMs = sumMs("cd") + sumMs("fd") - median(untraced.map(_("wall_s") * 1e3))
    val parbRounds = parb.map(_.metrics.rounds).sum
    val sparkJobs = sparkRuns.map(_._2.jobs).sum

    val m = ListMap[String, (Double, String)](
      "graph.gen_ms" -> (median(genMs), "ms"),
      "graph.filterU_ms" -> (median(named("graph.filterU").map(_.ms)), "ms"),
      "count.ms" -> (sumMs("count"), "ms"),
      "count.ms_1t" -> (sumMs("count.1t"), "ms"),
      "count.wedges" -> (sumCount("count", "wedges"), "count"),
      "count.recount_ms" -> (median(named("count.recount").map(_.ms)), "ms"),
      "cd.ms" -> (sumMs("cd"), "ms"),
      "cd.rounds" -> (sumCount("cd", "rounds"), "count"),
      "cd.huc_triggers" -> (sumCount("cd", "huc_triggers"), "count"),
      "cd.huc_wedges" -> (sumCount("cd", "huc_wedges"), "count"),
      "cd.peel_wedges" -> (sumCount("cd", "peel_wedges"), "count"),
      "cd.subsets" -> (sumCount("cd", "subsets"), "count"),
      "fd.ms" -> (sumMs("fd"), "ms"),
      "fd.wedges" -> (sumCount("fd", "wedges"), "count"),
      "fd.subset_max_ms" -> (subsets.map(_.ms).maxOption.getOrElse(0.0), "ms"),
      "fd.subset_sum_ms" -> (subsets.map(_.ms).sum, "ms"),
      "fd.subset_max_wedges" -> (critical.fold(0.0)(_.counts("wedges")), "count"),
      "fd.subset_max_n" -> (critical.fold(0.0)(_.counts("n")), "count"),
      "receipt.wedges" -> (rowTraces.map(_.totalWedges.toDouble).sum, "count"),
      "parb.ms" -> (sumMs("parb"), "ms"),
      "parb.rounds" -> (parbRounds.toDouble, "count"),
      "parb.wedges" -> (parb.map(_.metrics.totalWedges.toDouble).sum, "count"),
      "parb.us_per_round" -> (if (parbRounds == 0) 0.0 else parb.map(_.metrics.peelTimeMs).sum * 1e3 / parbRounds, "us"),
      "bup.ms" -> (sumMs("bup"), "ms"),
      "bup.wedges" -> (bup.map(_.metrics.totalWedges.toDouble).sum, "count"),
      "spark.count_ms" -> (sumMs("spark.count"), "ms"),
      "spark.cd_ms" -> (sparkRuns.map(_._1.metrics.cdTimeMs).sum, "ms"),
      "spark.fd_ms" -> (sparkRuns.map(_._1.metrics.fdTimeMs).sum, "ms"),
      "spark.rounds" -> (sparkRuns.map(_._1.metrics.rounds.toDouble).sum, "count"),
      "spark.jobs" -> (sparkJobs.toDouble, "count"),
      "spark.stages" -> (sparkRuns.map(_._2.stages.toDouble).sum, "count"),
      "spark.tasks" -> (sparkRuns.map(_._2.tasks.toDouble).sum, "count"),
      "spark.shuffle_write_mb" -> (sparkRuns.map(_._2.shuffleWriteBytes / 1e6).sum, "MB"),
      "spark.ms_per_job" -> (if (sparkJobs == 0) 0.0 else sparkRuns.map(_._3).sum / sparkJobs, "ms"),
      "jvm.gc_ms" -> (median(untraced.map(_("gc_ms"))), "ms"),
      "jvm.gc_count" -> (median(untraced.map(_("gc_count"))), "count"),
      "trace.overhead_ms" -> (overheadMs, "ms")
    )
    ListMap(
      "metrics" -> m.map { case (k, (v, u)) => k -> metric(v, u) },
      "sample_counts" -> ListMap(
        "graph.gen_ms" -> genMs.length, "graph.filterU_ms" -> named("graph.filterU").length,
        "count.recount_ms" -> named("count.recount").length, "fd.subset" -> subsets.length,
        "jvm.gc_ms" -> untraced.length, "trace.overhead_ms" -> untraced.length),
      "tracing_overhead_ms" -> overheadMs,
      "untraced_samples" -> untraced,
      "spans" -> spansJson(tr))
  }

  /** The local layers of one row, checked three ways: tips against BUP's,
    * the per-subset replay against `fineDecomposition`, and Λ from the spans
    * against the `Metrics.totalWedges` of this run's untraced `ReceiptLocal.run`.
    */
  private def traceLocal(tr: Tracer, p: Prepared): Option[RowTrace] = {
    val name = p.row.name
    attempted += 1
    try {
      val rt = LocalTrace.traceRow(tr, p.g, cfg)
      if (Reference.checksum(rt.tips) != p.ref) fail(s"traced RECEIPT $name: tips differ from BUP's")
      else if (!rt.replayTips.sameElements(rt.tips)) fail(s"FD replay $name: tips differ from fineDecomposition's")
      else if (rt.replayWedges != rt.fdWedges) fail(s"FD replay $name: ${rt.replayWedges} wedges, FD reported ${rt.fdWedges}")
      else if (localMetrics.get(name).exists(_.totalWedges != rt.totalWedges))
        fail(s"trace $name: Λ ${rt.totalWedges} != Metrics.totalWedges ${localMetrics(name).totalWedges}")
      Some(rt)
    } catch { case NonFatal(e) => fail(s"traced RECEIPT $name: $e"); None }
  }

  /** `SparkReceipt.run` and, on its own, `SparkButterfly.perVertex` on each
    * row, each with a [[JobCounter]] registered. The session is configured as
    * the repository's Spark tests configure theirs and is stopped at the end.
    */
  private def traceSpark(tr: Tracer, rows: Seq[Prepared]): Seq[(SparkReceipt.Result, JobCounter, Double)] = {
    val spark = tr.span("spark.session")(SparkRun.session(master, o.workDir.resolve("spark-local").toString))
    try rows.flatMap { p =>
      tr.span(s"spark ${p.row.name}") {
        val df = tr.span("spark.edgesDF")(BipartiteGen.edgesDF(spark, p.g))
        val (res, counter) = SparkRun.counted(spark) {
          checked(s"SparkReceipt ${p.row.name}", p.ref, (r: SparkReceipt.Result) => r.tips)(
            tr.span("spark.receipt")(SparkReceipt.run(spark, df, p.g.nU, p.g.nV, SparkReceipt.Config(P = P))))
        }
        SparkRun.counted(spark)(tr.span("spark.count")(SparkButterfly.perVertex(spark, df, p.g.nU, p.g.nV)))
        res.map(t => (t.value, counter, t.ms))
      }
    } finally spark.stop()
  }
}
