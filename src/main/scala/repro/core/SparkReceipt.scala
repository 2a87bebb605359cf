package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.bipartite.{BipartiteGraph, BUP, CoarseDecomposition, PeelState, ReceiptLocal}

/** RECEIPT as a Spark dataflow.
  *
  * Mapping of the paper's shared-memory design onto Spark:
  *
  *  - **CD peel iteration → one Spark job** ([[LiveEdges.peelRound]]). The
  *    whole active range is peeled at once: a join of the peeled vertices'
  *    edges with the live edge set generates every wedge `u–v–u'`,
  *    aggregation by `(u, u')` yields shared-butterfly decrements `C(c,2)`,
  *    and a second aggregation by `u'` produces one combined support update
  *    per 2-hop neighbour. The job barrier *is* the synchronization round ρ
  *    counts.
  *  - **Control state lives on the driver**: the CD loop is
  *    [[CoarseDecomposition]], the same one the shared-memory engine runs,
  *    over a [[PeelState]] skeleton (support array, range bounds, HUC cost
  *    estimates) — the analogue of the paper's shared arrays; all
  *    wedge-heavy work (counting, update aggregation, induced peels) runs
  *    distributed.
  *  - **DGM is structural here**: peeled vertices are anti-joined out of
  *    the live edge DataFrame every iteration, so no stale wedges are ever
  *    shuffled (the paper's periodic compaction, at iteration granularity).
  *  - **HUC**: when the live peel cost `Σ_{u∈active} Σ_{v∈N_u} d_v` exceeds
  *    the Chiba–Nishizeki re-count bound, the round instead re-counts
  *    butterflies with [[SparkButterfly]] on the live edge set.
  *  - **FD subset → one `flatMapGroups` task.** Each subset's induced
  *    subgraph is grouped to a single task that runs the *exact*
  *    one-thread peel ([[BUP.peel]]: level batches, HUC re-counts when
  *    `enableHUC`) seeded from `⋈^init` — the paper's one-thread-per-subset
  *    task queue, scheduled by Spark.
  */
object SparkReceipt {

  final case class Config(P: Int = 15, enableHUC: Boolean = true)

  final case class Result(tips: Array[Long], metrics: ReceiptLocal.Metrics)

  def run(spark: SparkSession, edgesIn: DataFrame, nU: Int, nV: Int,
          cfg: Config = Config()): Result =
    LiveEdges.withSmallShuffles(spark) {
      val live = new LiveEdges(edgesIn)
      try runInner(spark, live, nU, nV, cfg) finally live.close()
    }

  private def runInner(spark: SparkSession, live: LiveEdges, nU: Int, nV: Int,
                       cfg: Config): Result = {
    import spark.implicits._
    val edges0 = live.initial

    // Driver-side skeleton: adjacency for cost estimates and FD membership.
    val g = BipartiteDF.toLocal(edges0, nU, nV)
    val st = new PeelState(g, enableDGM = false) // bookkeeping only

    // ---- initial counting (Spark dataflow) ----
    val tCnt0 = System.nanoTime()
    val counts = SparkButterfly.perVertex(spark, edges0, nU, nV)
    st.setSupports(counts.cntU)
    val cntTimeMs = (System.nanoTime() - tCnt0) / 1e6

    // ---- Coarse-grained Decomposition ----
    val dataflow = new CoarseDecomposition.Rounds {
      def peelCost(active: Array[Int]): Long = {
        var s = 0L
        active.foreach(u => g.foreachNbrU(u)(v => s += st.curDegV.get(v)))
        s
      }
      def peel(active: Array[Int], floor: Long): Long = live.peelRound(st, active, floor)
      def recount(active: Array[Int]): (Array[Long], Long) = {
        live.drop(active)
        val rc = SparkButterfly.perVertex(spark, live.current, nU, nV)
        (rc.cntU, rc.wedgeRows)
      }
    }
    val cd = CoarseDecomposition.run(st, cfg.P, cfg.enableHUC, dataflow, counts.wedgeRows, cntTimeMs)

    // ---- Fine-grained Decomposition ----
    val tFd0 = System.nanoTime()
    val assign = (0 until nU).collect {
      case u if cd.subsetOf(u) >= 0 => (u.toLong, cd.subsetOf(u), cd.supInit(u))
    }
    val assignDF = assign.toDF("u", "subset", "supInit")
    val induced = edges0.join(assignDF, "u")
      .select(col("subset").cast("int") as "subset", col("u"), col("v"), col("supInit"))
      .as[(Int, Long, Long, Long)]

    val huc = cfg.enableHUC
    val fdRows = induced
      .groupByKey(_._1)
      .flatMapGroups((_, rows) => peelSubsetTask(rows, huc))
      .collect()

    val tips = Array.fill[Long](nU)(-1L)
    var fdWedges = 0L
    fdRows.foreach { case (u, tip, wRow) =>
      if (u >= 0) tips(u.toInt) = tip
      fdWedges += wRow
    }
    // degree-0 vertices of U never reach the FD dataflow: their subset is
    // known and their tip number is their (zero) support.
    var u3 = 0
    while (u3 < nU) {
      if (tips(u3) < 0 && cd.subsetOf(u3) >= 0 && g.degU(u3) == 0) tips(u3) = cd.supInit(u3)
      u3 += 1
    }
    Result(tips, ReceiptLocal.metrics(cd, fdWedges, (System.nanoTime() - tFd0) / 1e6))
  }

  /** FD executor task: the exact peel of [[BUP.peel]] on one subset's
    * induced subgraph, supports seeded from `⋈^init`. Emits
    * `(u, θ_u, wedgeShare)` rows where the subset's FD wedge count rides on
    * the first row.
    */
  private def peelSubsetTask(rows: Iterator[(Int, Long, Long, Long)], enableHUC: Boolean): Iterator[(Long, Long, Long)] = {
    val buf = rows.toArray
    if (buf.isEmpty) Iterator.empty
    else {
      val us = buf.map(_._2).distinct.sorted
      val vs = buf.map(_._3).distinct.sorted
      val uIdx = us.zipWithIndex.toMap
      val vIdx = vs.zipWithIndex.toMap
      val g = BipartiteGraph.fromEdges(us.length, vs.length,
        buf.map(r => (uIdx(r._2), vIdx(r._3))).toSeq)
      val init = new Array[Long](us.length)
      buf.foreach(r => init(uIdx(r._2)) = r._4)
      val members = Array.tabulate(us.length)(identity)
      val r = BUP.peel(g, init, members, enableDGM = true, enableHUC)
      members.iterator.map { lu =>
        (us(lu), r.tips(lu), if (lu == 0) r.metrics.peelWedges else 0L)
      }
    }
  }
}
