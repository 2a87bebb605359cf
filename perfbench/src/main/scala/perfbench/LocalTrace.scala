package perfbench

import repro.bipartite.{BipartiteGraph, BUP, ButterflyCounting, ReceiptLocal}
import repro.bipartite.ReceiptLocal.CDResult

/** FD work of one subset, replayed on its own. */
final case class SubsetReplay(n: Int, wedges: Long)

/** Everything the traced run learns about one RECEIPT decomposition. */
final case class RowTrace(
    countWedges: Long,
    cd: CDResult,
    tips: Array[Long],
    fdWedges: Long,
    replay: Seq[SubsetReplay],
    replayTips: Array[Long]
) {
  def replayWedges: Long = replay.map(_.wedges).sum
  /** Λ from the layer boundaries: cnt + huc + cd + fd. */
  def totalWedges: Long = countWedges + cd.hucWedges + cd.peelWedges + replayWedges
}

/** The traced run of the local layers: each layer's public function is
  * called on its own from here, inside a span.
  */
object LocalTrace {

  private def n(x: Long): Map[String, Double] = Map("wedges" -> x.toDouble)

  def traceRow(tr: Tracer, g: BipartiteGraph, cfg: ReceiptLocal.Config): RowTrace = {
    val counts = tr.spanWith("count", (c: repro.bipartite.ButterflyCounts) => n(c.wedges)) {
      ButterflyCounting.vertexPriority(g, cfg.threads)
    }
    tr.spanWith("count.1t", (c: repro.bipartite.ButterflyCounts) => n(c.wedges)) {
      ButterflyCounting.vertexPriority(g, 1)
    }
    val cd = tr.spanWith("cd", (c: CDResult) => Map(
      "rounds" -> c.rounds.toDouble, "huc_triggers" -> c.hucTriggers.toDouble,
      "huc_wedges" -> c.hucWedges.toDouble, "peel_wedges" -> c.peelWedges.toDouble,
      "subsets" -> c.subsets.toDouble)) {
      ReceiptLocal.coarseDecomposition(g, cfg)
    }
    val (tips, fdWedges) = tr.spanWith("fd", (r: (Array[Long], Long)) => n(r._2)) {
      ReceiptLocal.fineDecomposition(g, cd, cfg)
    }
    val (replay, replayTips) = replayFD(tr, g, cd, cfg.enableDGM)
    recount(tr, g, cd, cfg.threads)
    RowTrace(counts.wedges, cd, tips, fdWedges, replay, replayTips)
  }

  def members(cd: CDResult): Array[Array[Int]] = {
    val b = Array.fill(cd.subsets)(Array.newBuilder[Int])
    cd.subsetOf.indices.foreach(u => if (cd.subsetOf(u) >= 0) b(cd.subsetOf(u)) += u)
    b.map(_.result())
  }

  /** FD one subset at a time: `filterU` to the subset, then `BUP.peel` seeded
    * from ⋈^init, as each FD task does.
    */
  def replayFD(tr: Tracer, g: BipartiteGraph, cd: CDResult, enableDGM: Boolean): (Seq[SubsetReplay], Array[Long]) = {
    val tips = Array.fill(g.nU)(-1L)
    val replay = members(cd).toSeq.zipWithIndex.map { case (ms, i) =>
      val r = tr.spanWith("fd.subset", (r: repro.bipartite.TipResult) =>
        Map("subset" -> i.toDouble, "n" -> ms.length.toDouble, "wedges" -> r.metrics.peelWedges.toDouble)) {
        val mask = new Array[Boolean](g.nU)
        ms.foreach(mask(_) = true)
        val induced = tr.span("graph.filterU")(g.filterU(mask))
        tr.span("bup.peel")(BUP.peel(induced, cd.supInit, ms, enableDGM = enableDGM))
      }
      ms.foreach(u => tips(u) = r.tips(u))
      SubsetReplay(ms.length, r.metrics.peelWedges)
    }
    (replay, tips)
  }

  /** The HUC re-count on the live set at each CD subset boundary: the live
    * set before subset `i` is every vertex CD placed in subset `i` or later.
    */
  def recount(tr: Tracer, g: BipartiteGraph, cd: CDResult, threads: Int): Unit =
    (1 until cd.subsets).foreach { i =>
      val live = cd.subsetOf.map(_ >= i)
      tr.spanWith("count.recount", (c: repro.bipartite.ButterflyCounts) => n(c.wedges)) {
        val lg = tr.span("graph.filterU")(g.filterU(live))
        ButterflyCounting.vertexPriority(lg, threads)
      }
    }
}
