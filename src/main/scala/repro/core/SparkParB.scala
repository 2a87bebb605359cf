package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bipartite.PeelState

/** ParB (parallel bottom-up peeling, ParButterfly BATCH mode) as a Spark
  * dataflow — the baseline RECEIPT is compared against, on the same
  * substrate as [[SparkReceipt]] and with the same round
  * ([[LiveEdges.peelRound]]).
  *
  * Every round peels exactly the minimum-support vertices and pays one job
  * barrier, so ρ here equals the shared-memory ParB's ρ — which is 2–4
  * orders of magnitude larger than RECEIPT's. At ~10³–10⁴ rounds a
  * dataflow round costs far more than it computes; the `budgetMs` /
  * `maxRounds` caps let benchmarks report "did not finish" exactly the way
  * the paper's table 3 reports `∞` / `-` for its baselines on the large
  * datasets.
  */
object SparkParB {

  final case class Result(
      tips: Array[Long],      // -1 for vertices not reached before the cap
      rounds: Long,
      peelWedges: Long,
      finished: Boolean,
      elapsedMs: Double
  )

  def run(spark: SparkSession, edgesIn: DataFrame, nU: Int, nV: Int,
          budgetMs: Long = 120000, maxRounds: Long = Long.MaxValue): Result =
    LiveEdges.withSmallShuffles(spark) {
      val t0 = System.nanoTime()
      def elapsedMs: Double = (System.nanoTime() - t0) / 1e6
      val live = new LiveEdges(edgesIn)
      try {
        val g = BipartiteDF.toLocal(live.initial, nU, nV)
        val st = new PeelState(g, enableDGM = false) // driver support bookkeeping
        st.setSupports(SparkButterfly.perVertex(spark, live.initial, nU, nV).cntU)

        val tips = Array.fill[Long](nU)(-1L)
        var rounds = 0L
        var peelWedges = 0L
        while (st.aliveCount > 0 && elapsedMs < budgetMs && rounds < maxRounds) {
          // batch = all live vertices at minimum support
          val liveU = (0 until nU).filter(st.alive(_))
          val m = liveU.map(st.sup.get).min
          val batch = liveU.filter(st.sup.get(_) == m).toArray
          batch.foreach { u => tips(u) = m; st.markPeeled(u) }
          peelWedges += live.peelRound(st, batch, m)
          rounds += 1
        }
        Result(tips, rounds, peelWedges, finished = st.aliveCount == 0, elapsedMs)
      } finally live.close()
    }
}
