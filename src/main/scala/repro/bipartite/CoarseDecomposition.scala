package repro.bipartite

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}
import ReceiptLocal.CDResult

/** The CD control loop of alg. 3, shared by the shared-memory and the Spark
  * RECEIPT. Each range `[lo, hi)` gets its upper bound from `findHi` with
  * two-way adaptive targeting (dynamic `tgt`, overshoot scaling `s_i ≤ 1`),
  * records `⋈^init` for the vertices still alive, then runs rounds until no
  * live vertex has support below `hi`. Every round removes the whole active
  * set, either by a capped peel or, when HUC says peeling costs more than
  * the Chiba–Nishizeki re-count bound, by dropping it and re-counting the
  * live subgraph. Supports, liveness and the live V degrees sit in one
  * [[PeelState]]; how a round runs on its substrate is a [[Rounds]] backend.
  */
object CoarseDecomposition {

  /** How one CD round runs on a substrate. `active` is the round's active set;
    * `peel` and `recount` see it already marked peeled in the [[PeelState]].
    */
  trait Rounds {
    /** HUC's estimate of the wedges peeling `active` would traverse. */
    def peelCost(active: Array[Int]): Long
    /** Capped peel of `active` (supports end ≥ `floor`); returns wedges traversed. */
    def peel(active: Array[Int], floor: Long): Long
    /** Butterfly counts of every U vertex of the live subgraph once `active`
      * is gone, and the wedges the re-count traversed.
      */
    def recount(active: Array[Int]): (Array[Long], Long)
  }

  /** Partitions the live vertices of `st`, whose supports are the full
    * graph's butterfly counts, into ≤ P+1 subsets. `cntInitWedges` and
    * `cntTimeMs` of that initial count are carried into the result.
    */
  def run(st: PeelState, P: Int, enableHUC: Boolean, backend: Rounds,
          cntInitWedges: Long, cntTimeMs: Double): CDResult = {
    val t0 = System.nanoTime()
    val nU = st.g.nU
    val w = st.g.wedgeEndpointCountU // static wedge-count proxy, per paper
    val subsetOf = Array.fill(nU)(-1)
    val supInit = new Array[Long](nU)
    val loBuf, hiBuf, swBuf = ArrayBuffer[Long]()

    var hucWedges = 0L
    var peelWedges = 0L
    var rounds = 0L
    var hucTriggers = 0
    var cRcnt = st.recountCost
    var lo = 0L
    var i = 0
    var scale = 1.0
    var remainingWedges = w.sum

    while (st.aliveCount > 0) {
      var tgt = 0L
      val hi =
        if (i >= P) Long.MaxValue // leftover subset U_{P+1}
        else {
          tgt = math.max(1L, (scale * remainingWedges / (P - i)).toLong)
          findHi(st, w, tgt)
        }
      // ⋈^init: support before any vertex of U_i is peeled
      var u = 0
      while (u < nU) { if (st.alive(u)) supInit(u) = st.sup.get(u); u += 1 }

      var subsetW = 0L
      var active = scanActive(st, hi)
      while (active.nonEmpty) {
        val huc = enableHUC && backend.peelCost(active) > cRcnt
        active.foreach { u0 => subsetOf(u0) = i; subsetW += w(u0); st.markPeeled(u0) }
        if (huc) {
          hucTriggers += 1
          val (cnt, wedges) = backend.recount(active)
          var u2 = 0
          while (u2 < nU) { if (st.alive(u2)) st.sup.set(u2, cnt(u2)); u2 += 1 }
          hucWedges += wedges
          cRcnt = st.recountCost
        } else peelWedges += backend.peel(active, lo)
        rounds += 1
        // untouched live vertices already had support ≥ hi, so this rescan
        // yields exactly the vertices the round pushed below hi
        active = scanActive(st, hi)
      }

      loBuf += lo; hiBuf += hi; swBuf += subsetW
      if (i < P && subsetW > 0) scale = math.min(1.0, tgt.toDouble / subsetW.toDouble)
      remainingWedges -= subsetW
      lo = hi
      i += 1
    }

    CDResult(
      subsetOf, supInit, loBuf.toArray, hiBuf.toArray, swBuf.toArray,
      cntInitWedges = cntInitWedges, hucWedges = hucWedges, peelWedges = peelWedges,
      rounds = rounds, hucTriggers = hucTriggers,
      cntTimeMs = cntTimeMs, peelTimeMs = (System.nanoTime() - t0) / 1e6
    )
  }

  /** All live vertices with support below `hi` (supports are ≥ the current
    * range floor by the cap invariant).
    */
  private def scanActive(st: PeelState, hi: Long): Array[Int] = {
    val b = new ArrayBuilder.ofInt
    var u = 0
    while (u < st.g.nU) { if (st.alive(u) && st.sup.get(u) < hi) b.addOne(u); u += 1 }
    b.result()
  }

  /** `findHi` of alg. 3: aggregate wedge counts into a support histogram,
    * prefix-sum in ascending support order, return `θ + 1` for the smallest
    * support θ whose cumulative wedge count reaches `tgt`.
    */
  private def findHi(st: PeelState, w: Array[Long], tgt: Long): Long = {
    import Peeling._
    val keys = new ArrayBuilder.ofLong
    var u = 0
    while (u < st.g.nU) {
      if (st.alive(u)) { val s = st.sup.get(u); requirePackable(s, u); keys.addOne(pack(s, u)) }
      u += 1
    }
    val sorted = keys.result()
    java.util.Arrays.sort(sorted) // ascending support, ties by id
    // the first support whose cumulative wedge count reaches tgt, or the max
    var k = 0
    var cum = w(unpackId(sorted(0)))
    while (cum < tgt && k < sorted.length - 1) { k += 1; cum += w(unpackId(sorted(k))) }
    unpackSup(sorted(k)) + 1
  }
}
