package repro.bipartite

import java.util.concurrent.Executors

/** ParB — parallel bottom-up peeling in the style of ParButterfly's BATCH
  * mode (Shi & Shun) as re-implemented by the RECEIPT paper for its
  * baseline comparison: every round peels *all* vertices whose support
  * equals the current minimum, in parallel, with a thread barrier per round.
  *
  * ρ (synchronization rounds) is the number of such rounds; the wedge
  * traversal is identical to BUP's since each vertex is still peeled exactly
  * once over the full graph (no DGM — the baseline has none).
  */
object ParB {
  import Peeling._

  def run(g: BipartiteGraph, threads: Int): TipResult = {
    val t0 = System.nanoTime()
    val counts = ButterflyCounting.vertexPriority(g, threads)
    val t1 = System.nanoTime()

    val st = new PeelState(g, enableDGM = false, threads)
    st.setSupports(counts.cntU)

    val heap = new LongMinHeap(g.nU + 16)
    var u = 0
    while (u < g.nU) { requirePackable(counts.cntU(u), u); heap.push(pack(counts.cntU(u), u)); u += 1 }

    val tips = Array.fill[Long](g.nU)(-1L)
    var rounds = 0L
    var peelWedges = 0L
    val batch = new Array[Int](g.nU)
    val pool = Executors.newFixedThreadPool(threads)
    val push: Int => Unit = u => heap.push(pack(st.sup.get(u), u))
    try while (st.aliveCount > 0) {
      // all live vertices at the current minimum support
      val nB = st.gatherMin(heap, batch)
      val minSup = st.sup.get(batch(0))
      var i = 0
      while (i < nB) { tips(batch(i)) = minSup; st.markPeeled(batch(i)); i += 1 }

      // parallel update with a barrier per round, then push each distinct
      // updated vertex once with its settled support
      peelWedges += st.peelBatch(batch, nB, minSup, pool, push)
      rounds += 1
    } finally pool.shutdown()
    val t2 = System.nanoTime()
    TipResult(
      tips,
      PeelMetrics(counts.wedges, peelWedges, rounds, (t1 - t0) / 1e6, (t2 - t1) / 1e6)
    )
  }
}
