package repro.bipartite

import java.util.concurrent.{Callable, ExecutorService, Executors}
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

/** Result of a counting pass: per-vertex butterfly counts for both sides and
  * the number of wedges actually traversed (the paper's Λ^pvBcnt metric).
  */
final case class ButterflyCounts(cntU: Array[Long], cntV: Array[Long], wedges: Long) {

  /** Total distinct butterflies ⋈_G. Every butterfly is incident on exactly
    * two U and two V vertices, so Σ_u ⋈_u = Σ_v ⋈_v = 2·⋈_G.
    */
  def totalButterflies: Long = cntU.sum / 2
}

/** Per-vertex butterfly counting.
  *
  * `vertexPriority` implements the paper's alg. 1: Chiba–Nishizeki wedge
  * retrieval with the degree-descending relabelling of Wang et al. ("Vertex
  * Priority Based Butterfly Counting", VLDB 2019). Nodes of U ∪ V are
  * renumbered by rank (rank 0 = highest degree, ties by id) and each
  * adjacency list holds ranks in ascending order, so only wedges
  * `(sp, mp, ep)` with `ep < min(sp, mp)` in rank ids are traversed, and the
  * inner loop stops at the first endpoint that breaks that condition. This
  * gives `O(Σ_{(u,v)∈E} min(d_u, d_v))` wedges instead of `O(Σ_v d_v²)`.
  * A two-pass formulation replaces the `nzw` wedge log of the pseudocode so
  * no per-start-vertex wedge list is materialized.
  *
  * `vertexPriorityLive` counts the subgraph induced by a mask of live U
  * vertices straight from the full graph (RECEIPT's HUC re-counts in CD and
  * FD); it builds the same relabelled graph, and so yields the same counts
  * and wedges, as `vertexPriority(g.filterU(aliveU))`. Its arrays live in a
  * caller-owned [[Workspace]], so a run of re-counts allocates them once.
  *
  * `bruteForce` enumerates same-side pair common-neighbour counts with
  * hashmaps — `O(Σ_v d_v²)` — and exists as an oracle for tests.
  */
object ButterflyCounting {

  @inline private def choose2(c: Long): Long = c * (c - 1) / 2

  /** Below this many nodes a count runs on the calling thread. */
  private val ParallelMinNodes = 1024

  /** Scratch of vertex-priority counting on subgraphs of `g`, reused from one
    * count to the next so a count allocates nothing: the relabelled graph in
    * the combined node space (`u` for U, `nU + v` for V, dead U vertices kept
    * with no edges; `rank(node)` is the node's position in the
    * degree-descending order and `off`/`adj` the CSR over ranks, each list
    * ascending), each worker's scratch and partial counts, and the result
    * arrays. One caller owns a workspace; its counts run one at a time.
    */
  final class Workspace(val g: BipartiteGraph, threads: Int = 1) {
    val n: Int = g.nU + g.nV
    /** Workers a count uses: 1 below `ParallelMinNodes` nodes. */
    val workers: Int = if (threads <= 1 || n < ParallelMinNodes) 1 else threads
    private[ButterflyCounting] val deg, order, rank, fill = new Array[Int](n)
    private[ButterflyCounting] val off = new Array[Int](n + 1)
    private[ButterflyCounting] val adj = new Array[Int](2 * g.m)
    // live degrees never exceed g's, so one bucket array fits every count
    private[ButterflyCounting] val start = new Array[Int](maxDegree(g) + 2)
    private[ButterflyCounting] val wdg, nze = Array.fill(workers)(new Array[Int](n))
    private[ButterflyCounting] val parts = Array.fill(workers)(new Array[Long](n))
    private[ButterflyCounting] val cntU = new Array[Long](g.nU)
    private[ButterflyCounting] val cntV = new Array[Long](g.nV)
  }

  private def maxDegree(g: BipartiteGraph): Int = {
    var d = 0
    var u = 0
    while (u < g.nU) { d = math.max(d, g.degU(u)); u += 1 }
    var v = 0
    while (v < g.nV) { d = math.max(d, g.degV(v)); v += 1 }
    d
  }

  /** Relabels the subgraph of `ws.g` induced by `aliveU` into `ws`. */
  private def relabel(ws: Workspace, aliveU: Array[Boolean], pool: ExecutorService): Unit = {
    val g = ws.g
    val nU = g.nU
    val n = ws.n
    val deg = ws.deg
    java.util.Arrays.fill(deg, 0)
    var u = 0
    while (u < nU) {
      if (aliveU(u)) {
        deg(u) = g.degU(u)
        var i = g.uOff(u)
        while (i < g.uOff(u + 1)) { deg(nU + g.uAdj(i)) += 1; i += 1 }
      }
      u += 1
    }
    var maxDeg = 0
    var x = 0
    while (x < n) { maxDeg = math.max(maxDeg, deg(x)); x += 1 }
    // degree descending, id ascending: a counting sort on maxDeg − deg,
    // which places ids in ascending order within each degree
    val start = ws.start
    java.util.Arrays.fill(start, 0, maxDeg + 2, 0)
    x = 0
    while (x < n) { start(maxDeg - deg(x) + 1) += 1; x += 1 }
    var b = 0
    while (b <= maxDeg) { start(b + 1) += start(b); b += 1 }
    val order = ws.order
    x = 0
    while (x < n) { val k = maxDeg - deg(x); order(start(k)) = x; start(k) += 1; x += 1 }
    val rank = ws.rank
    val off = ws.off
    var r = 0
    while (r < n) {
      val node = order(r)
      rank(node) = r
      off(r + 1) = off(r) + deg(node)
      r += 1
    }
    // visiting nodes in rank order appends each list's entries in ascending
    // rank; U nodes fill the V nodes' lists and V nodes the U nodes' lists,
    // so the two scatters write disjoint entries and can run side by side
    val adj = ws.adj
    val fill = ws.fill
    System.arraycopy(off, 0, fill, 0, n)
    val fromU: Callable[Unit] = () => {
      var r = 0
      while (r < n) {
        val node = order(r)
        if (node < nU && aliveU(node)) {
          var i = g.uOff(node)
          while (i < g.uOff(node + 1)) {
            val t = rank(nU + g.uAdj(i)); adj(fill(t)) = r; fill(t) += 1
            i += 1
          }
        }
        r += 1
      }
    }
    val fromV: Callable[Unit] = () => {
      var r = 0
      while (r < n) {
        val node = order(r)
        if (node >= nU) {
          // stop once the node's live neighbours are all placed
          var left = deg(node)
          var i = g.vOff(node - nU)
          while (left > 0) {
            val u2 = g.vAdj(i)
            if (aliveU(u2)) { val t = rank(u2); adj(fill(t)) = r; fill(t) += 1; left -= 1 }
            i += 1
          }
        }
        r += 1
      }
    }
    if (ws.workers > 1) pool.invokeAll(java.util.List.of(fromU, fromV)).asScala.foreach(_.get())
    else { fromU.call(); fromV.call() }
  }

  /** One worker's share of alg. 1: claims chunks of start ranks from `next`
    * and adds their butterflies to its partial counts `ws.parts(w)`. Returns
    * wedges traversed.
    */
  private def countChunks(ws: Workspace, w: Int, next: AtomicInteger, chunk: Int): Long = {
    val off = ws.off; val adj = ws.adj; val n = ws.n
    val wdg = ws.wdg(w); val nze = ws.nze(w); val cnt = ws.parts(w)
    var wedges = 0L
    var from = next.getAndAdd(chunk)
    while (from < n) {
      val until = math.min(n, from + chunk)
      var sp = from
      while (sp < until) {
        var nNze = 0
        // pass 1: aggregate wedge counts per endpoint
        var i = off(sp)
        while (i < off(sp + 1)) {
          val mp = adj(i)
          val lim = math.min(mp, sp)
          val jBeg = off(mp); val jEnd = off(mp + 1)
          var j = jBeg
          while (j < jEnd && adj(j) < lim) {
            val ep = adj(j)
            if (wdg(ep) == 0) { nze(nNze) = ep; nNze += 1 }
            wdg(ep) += 1
            j += 1
          }
          wedges += j - jBeg
          i += 1
        }
        // same-side contributions
        var spAdd = 0L
        var k = 0
        while (k < nNze) {
          val ep = nze(k)
          val b = choose2(wdg(ep).toLong)
          cnt(ep) += b; spAdd += b
          k += 1
        }
        cnt(sp) += spAdd
        // pass 2: opposite-side (mid) contributions, using finalized wdg
        i = off(sp)
        while (i < off(sp + 1)) {
          val mp = adj(i)
          val lim = math.min(mp, sp)
          var j = off(mp); val jEnd = off(mp + 1)
          var mpAdd = 0L
          while (j < jEnd && adj(j) < lim) { mpAdd += wdg(adj(j)) - 1; j += 1 }
          cnt(mp) += mpAdd
          i += 1
        }
        // clear scratch
        k = 0
        while (k < nNze) { wdg(nze(k)) = 0; k += 1 }
        sp += 1
      }
      from = next.getAndAdd(chunk)
    }
    wedges
  }

  /** Alg. 1 on graph `g`, using up to `threads` worker threads. The counts
    * are `g`'s own: they share no array with any other count.
    */
  def vertexPriority(g: BipartiteGraph, threads: Int = 1): ButterflyCounts = {
    val ws = new Workspace(g, threads)
    val all = new Array[Boolean](g.nU)
    java.util.Arrays.fill(all, true)
    if (ws.workers == 1) vertexPriorityLive(ws, all, null)
    else {
      val pool = Executors.newFixedThreadPool(ws.workers)
      try vertexPriorityLive(ws, all, pool)
      finally pool.shutdown()
    }
  }

  /** Alg. 1 on the subgraph of `ws.g` induced by the U vertices with
    * `aliveU(u)` (dead ones count 0), as `ws.workers` tasks on `pool`; with
    * one worker it runs on the calling thread and `pool` may be null. The
    * result's arrays belong to `ws` and hold these counts only until its
    * next count.
    */
  def vertexPriorityLive(ws: Workspace, aliveU: Array[Boolean], pool: ExecutorService): ButterflyCounts = {
    val n = ws.n
    val workers = ws.workers
    relabel(ws, aliveU, pool)
    // low ranks are hubs with few higher-priority endpoints, so work is
    // skewed towards high ranks: small chunks claimed on demand balance it
    val chunk = math.max(64, n / (16 * workers))
    val next = new AtomicInteger(0)
    val parts = ws.parts
    parts.foreach(java.util.Arrays.fill(_, 0L))
    val wedges =
      if (workers == 1) countChunks(ws, 0, next, chunk)
      else {
        val tasks = (0 until workers).map(w => new Callable[Long] { def call(): Long = countChunks(ws, w, next, chunk) })
        pool.invokeAll(tasks.asJava).asScala.map(_.get()).sum
      }
    val cnt = parts(0)
    var t = 1
    while (t < workers) {
      val p = parts(t)
      var r = 0
      while (r < n) { cnt(r) += p(r); r += 1 }
      t += 1
    }
    val nU = ws.g.nU
    val rank = ws.rank
    var x = 0
    while (x < nU) { ws.cntU(x) = cnt(rank(x)); x += 1 }
    while (x < n) { ws.cntV(x - nU) = cnt(rank(x)); x += 1 }
    ButterflyCounts(ws.cntU, ws.cntV, wedges)
  }

  /** Oracle: counts via same-side pair common-neighbour enumeration.
    * ⋈_u = Σ_{u'≠u} C(|N_u ∩ N_{u'}|, 2); only for small test graphs.
    */
  def bruteForce(g: BipartiteGraph): ButterflyCounts = {
    def side(nS: Int, foreachNbr: (Int, Int => Unit) => Unit, foreachBack: (Int, Int => Unit) => Unit): Array[Long] = {
      val out = new Array[Long](nS)
      val common = new scala.collection.mutable.HashMap[Int, Int]()
      var u = 0
      while (u < nS) {
        common.clear()
        foreachNbr(u, v => foreachBack(v, u2 => if (u2 != u) common(u2) = common.getOrElse(u2, 0) + 1))
        out(u) = common.valuesIterator.map(c => choose2(c.toLong)).sum
        u += 1
      }
      out
    }
    val cu = side(g.nU, (u, f) => g.foreachNbrU(u)(f), (v, f) => g.foreachNbrV(v)(f))
    val cv = side(g.nV, (v, f) => g.foreachNbrV(v)(f), (u, f) => g.foreachNbrU(u)(f))
    ButterflyCounts(cu, cv, 0L)
  }
}
