package repro.bipartite

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

/** Shared-memory RECEIPT (algs. 3 + 4) — the paper's algorithm verbatim:
  *
  *  - **CD** ([[CoarseDecomposition]] with the local round backend)
  *    partitions U into ≤ P+1 subsets of non-overlapping tip-number
  *    ranges. Each peeling iteration removes *every* live vertex whose
  *    support falls inside the current range; upper bounds come from a
  *    support-histogram prefix-sum over per-vertex wedge counts with two-way
  *    adaptive targeting (dynamic `tgt`, overshoot scaling `s_i ≤ 1`).
  *  - **HUC**: when the stored wedge cost of peeling the active set exceeds
  *    the Chiba–Nishizeki re-count bound, the active set is deleted without
  *    computing updates and butterflies are re-counted on the live subgraph.
  *  - **DGM**: V-adjacency compaction amortized against traversed wedges
  *    (see [[PeelState.chargeWedges]]).
  *  - **FD** peels each subset exactly, on one thread, with [[BUP.peel]] on
  *    the subgraph induced by `(U_i, V)`, supports seeded from `⋈^init`:
  *    every live vertex at the minimum support leaves in one level batch,
  *    and HUC applies per batch, with a re-count that keeps the butterflies
  *    shared with later subsets (see [[BUP.peel]]). Subsets are scheduled
  *    LPT-style (sorted by wedge-count proxy, descending) onto a task queue
  *    drained by `threads` workers.
  */
object ReceiptLocal {

  final case class Config(
      P: Int = 15,
      threads: Int = Runtime.getRuntime.availableProcessors(),
      enableHUC: Boolean = true,
      enableDGM: Boolean = true
  )

  final case class Metrics(
      cntInitWedges: Long,
      hucWedges: Long,
      cdPeelWedges: Long,
      fdWedges: Long,
      rounds: Long,
      subsets: Int,
      hucTriggers: Int,
      cntTimeMs: Double,
      cdTimeMs: Double,
      fdTimeMs: Double
  ) {
    def cntWedges: Long = cntInitWedges + hucWedges
    def totalWedges: Long = cntWedges + cdPeelWedges + fdWedges
    def totalTimeMs: Double = cntTimeMs + cdTimeMs + fdTimeMs
  }

  final case class CDResult(
      subsetOf: Array[Int],      // u -> subset id (0-based)
      supInit: Array[Long],      // ⋈^init_u
      lo: Array[Long],           // θ(i) per subset
      hi: Array[Long],           // θ(i+1) per subset (exclusive)
      subsetWedgeW: Array[Long], // Σ_{u∈U_i} w[u], the FD scheduling proxy
      cntInitWedges: Long,
      hucWedges: Long,
      peelWedges: Long,
      rounds: Long,
      hucTriggers: Int,
      cntTimeMs: Double,
      peelTimeMs: Double
  ) { def subsets: Int = lo.length }

  final case class Result(tips: Array[Long], metrics: Metrics, cd: CDResult)

  /** The run's metrics from its CD result and FD's wedges and time. */
  def metrics(cd: CDResult, fdWedges: Long, fdTimeMs: Double): Metrics =
    Metrics(
      cntInitWedges = cd.cntInitWedges, hucWedges = cd.hucWedges,
      cdPeelWedges = cd.peelWedges, fdWedges = fdWedges,
      rounds = cd.rounds, subsets = cd.subsets, hucTriggers = cd.hucTriggers,
      cntTimeMs = cd.cntTimeMs, cdTimeMs = cd.peelTimeMs, fdTimeMs = fdTimeMs
    )

  def run(g: BipartiteGraph, cfg: Config = Config()): Result = {
    val cd = coarseDecomposition(g, cfg)
    val t0 = System.nanoTime()
    val (tips, fdWedges) = fineDecomposition(g, cd, cfg)
    Result(tips, metrics(cd, fdWedges, (System.nanoTime() - t0) / 1e6), cd)
  }

  /** CD on the shared-memory backend: peel rounds are [[PeelState.peelBatch]]
    * with DGM, HUC re-counts run [[ButterflyCounting.vertexPriorityLive]] on
    * the live mask, and HUC's peel cost is the stored traversal cost (stale
    * entries included when DGM is off). The initial count, the peel rounds
    * and the re-counts all run on one pool of `threads` workers, and the
    * counts share one counting workspace.
    */
  def coarseDecomposition(g: BipartiteGraph, cfg: Config): CDResult = {
    val pool = Executors.newFixedThreadPool(math.max(1, cfg.threads))
    try {
      val st = new PeelState(g, cfg.enableDGM, cfg.threads)
      val ws = new ButterflyCounting.Workspace(g, cfg.threads)
      val t0 = System.nanoTime()
      // nothing is peeled yet, so this counts the whole graph
      val counts = ButterflyCounting.vertexPriorityLive(ws, st.alive, pool)
      val cntTimeMs = (System.nanoTime() - t0) / 1e6
      st.setSupports(counts.cntU)
      val local = new CoarseDecomposition.Rounds {
        def peelCost(active: Array[Int]): Long = {
          var s = 0L
          active.foreach(u => s += st.storedPeelCost(u))
          s
        }
        def peel(active: Array[Int], floor: Long): Long = st.peelBatch(active, active.length, floor, pool, null)
        def recount(active: Array[Int]): (Array[Long], Long) = {
          val rc = ButterflyCounting.vertexPriorityLive(ws, st.alive, pool)
          (rc.cntU, rc.wedges)
        }
      }
      CoarseDecomposition.run(st, cfg.P, cfg.enableHUC, local, counts.wedges, cntTimeMs)
    } finally pool.shutdown()
  }

  // ---------------------------------------------------------------- FD ----

  /** Alg. 4: subsets are tasks on a pool of `threads` workers, submitted in
    * LPT order of the CD wedge proxy (the pool's queue is FIFO, so each idle
    * worker takes the largest remaining subset); each task induces the
    * subgraph on `(U_i, V)` and peels it exactly on one thread with
    * [[BUP.peel]] seeded from `⋈^init`: level batches, with HUC re-counts
    * when `cfg.enableHUC`. Returns tips and FD wedges (re-counts included);
    * a failed task fails the call.
    */
  def fineDecomposition(g: BipartiteGraph, cd: CDResult, cfg: Config): (Array[Long], Long) = {
    val tips = Array.fill[Long](g.nU)(-1L)
    val members = Array.fill(cd.subsets)(Array.newBuilder[Int])
    var u = 0
    while (u < g.nU) { if (cd.subsetOf(u) >= 0) members(cd.subsetOf(u)) += u; u += 1 }

    val tasks = (0 until cd.subsets).sortBy(i => -cd.subsetWedgeW(i)).map { i =>
      new Callable[Long] {
        def call(): Long = {
          val ms = members(i).result()
          if (ms.isEmpty) 0L
          else {
            val aliveMask = new Array[Boolean](g.nU)
            ms.foreach(aliveMask(_) = true)
            val r = BUP.peel(g.filterU(aliveMask), cd.supInit, ms, cfg.enableDGM, cfg.enableHUC)
            ms.foreach(u0 => tips(u0) = r.tips(u0)) // subsets are disjoint
            r.metrics.peelWedges
          }
        }
      }
    }
    val pool = Executors.newFixedThreadPool(math.max(1, cfg.threads))
    try (tips, pool.invokeAll(tasks.asJava).asScala.map(_.get()).sum)
    finally pool.shutdown()
  }
}
