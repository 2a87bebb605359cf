package repro.bipartite

import java.util.concurrent.{Callable, ExecutorService}
import java.util.concurrent.atomic.{AtomicIntegerArray, AtomicLongArray}
import scala.jdk.CollectionConverters._

/** Unboxed binary min-heap of packed longs. Peeling kernels pack
  * `(support << IdBits) | vertexId` so the heap orders by support first
  * (supports are non-negative), with lazy deletion of stale entries.
  */
final class LongMinHeap(initCap: Int = 16) {
  private var a = new Array[Long](math.max(initCap, 16))
  private var n = 0

  def size: Int = n
  def isEmpty: Boolean = n == 0

  def push(x: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(n) = x
    var i = n
    n += 1
    while (i > 0 && a((i - 1) / 2) > a(i)) {
      val p = (i - 1) / 2
      val t = a(p); a(p) = a(i); a(i) = t
      i = p
    }
  }

  def peek: Long = a(0)

  def pop(): Long = {
    val top = a(0)
    n -= 1
    a(0) = a(n)
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1; val r = l + 1
      var s = i
      if (l < n && a(l) < a(s)) s = l
      if (r < n && a(r) < a(s)) s = r
      if (s == i) done = true
      else { val t = a(s); a(s) = a(i); a(i) = t; i = s }
    }
    top
  }
}

object Peeling {
  /** Vertex ids packed into the low bits of heap entries. 2^21 = 2M vertices
    * leaves 42 bits for supports (≈4.4e12), plenty at reproduction scale.
    */
  val IdBits = 21
  val IdMask: Long = (1L << IdBits) - 1
  /** Largest support a packed key holds, 2^42 − 1; larger ones would wrap. */
  val MaxSup: Long = (1L << (63 - IdBits)) - 1

  /** Throws `IllegalArgumentException` unless `sup` of `u` fits a packed key. */
  def requirePackable(sup: Long, u: Int): Unit =
    require(sup >= 0 && sup <= MaxSup,
      s"support $sup of vertex $u is outside the packed heap key's range [0, 2^${63 - IdBits} - 1]")

  @inline def pack(sup: Long, u: Int): Long = (sup << IdBits) | u
  @inline def unpackSup(x: Long): Long = x >>> IdBits
  @inline def unpackId(x: Long): Int = (x & IdMask).toInt

  @inline def choose2(c: Long): Long = c * (c - 1) / 2
}

/** Mutable peeling state over a [[BipartiteGraph]]:
  *
  *  - `alive` flags and atomic supports for the U side;
  *  - the V-side adjacency as growable-free array-of-arrays so DGM (dynamic
  *    graph maintenance, §4.2) can periodically compact out edges to peeled
  *    vertices. Wedge-traversal metering charges the *stored* list length
  *    (`vLen`), so running without DGM pays for stale entries exactly as the
  *    paper describes;
  *  - the `update(u, …)` routine of alg. 2: aggregate wedges `u–v–u'` into a
  *    scratch array, convert each aggregated count `c` into `C(c, 2)` shared
  *    butterflies, and apply capped atomic decrements
  *    `⋈_{u'} ← max(capFloor, ⋈_{u'} − C(c,2))`.
  *
  * Thread-safety: `update` may be called concurrently for distinct `u`
  * provided each caller passes its own `wdg`/`touched` scratch. Callers must
  * mark the whole batch dead (`markPeeled`) before issuing updates so
  * intra-batch updates are skipped (they are irrelevant by lemma 2).
  * [[peelBatch]] is that round, split over `threads` workers, and
  * [[gatherMin]] gathers a minimum-support batch from a lazy heap.
  */
final class PeelState(val g: BipartiteGraph, enableDGM: Boolean, threads: Int = 1) {
  import Peeling._

  require(g.nU < (1 << IdBits), s"nU=${g.nU} exceeds heap id space")

  val alive: Array[Boolean] = Array.fill(g.nU)(true)
  val sup: AtomicLongArray  = new AtomicLongArray(g.nU)
  /** Live U-degree of each v (excludes peeled vertices); used for HUC cost
    * estimates. Stored-list length `vLen` is the actual traversal cost.
    */
  val curDegV: AtomicIntegerArray = {
    val a = new AtomicIntegerArray(g.nV)
    var v = 0
    while (v < g.nV) { a.set(v, g.degV(v)); v += 1 }
    a
  }
  private val vAdj: Array[Array[Int]] =
    Array.tabulate(g.nV)(v => java.util.Arrays.copyOfRange(g.vAdj, g.vOff(v), g.vOff(v + 1)))
  private val vLen: Array[Int] = Array.tabulate(g.nV)(v => g.degV(v))

  var aliveCount: Int = g.nU
  private var wedgesSinceCompact = 0L

  def setSupports(init: Array[Long]): Unit = {
    var u = 0
    while (u < g.nU) { sup.set(u, init(u)); u += 1 }
  }

  /** Stored traversal cost of peeling `u` now: Σ_{v∈N_u} storedLen(v). */
  def storedPeelCost(u: Int): Long = {
    var s = 0L
    var i = g.uOff(u)
    while (i < g.uOff(u + 1)) { s += vLen(g.uAdj(i)); i += 1 }
    s
  }

  /** Chiba–Nishizeki re-count bound on the live subgraph:
    * Σ_{(u,v)∈E, u alive} min(d_u, curDeg_v). O(m) — call sparingly.
    */
  def recountCost: Long = {
    var s = 0L; var u = 0
    while (u < g.nU) {
      if (alive(u)) {
        val du = g.degU(u)
        var i = g.uOff(u)
        while (i < g.uOff(u + 1)) { s += math.min(du, curDegV.get(g.uAdj(i))); i += 1 }
      }
      u += 1
    }
    s
  }

  /** Mark `u` peeled: flips `alive`, decrements live V degrees and the live
    * count. Must happen for the whole batch before updates are issued, and
    * is only called from the sequential section of each round.
    */
  def markPeeled(u: Int): Unit = {
    alive(u) = false
    aliveCount -= 1
    g.foreachNbrU(u)(v => { curDegV.decrementAndGet(v); () })
  }

  /** Alg. 2 `update` for peeled vertex `u`. Returns wedges traversed.
    * `onUpdated` is invoked once per distinct live vertex whose support
    * changed, with its new support (callers use it for heap pushes /
    * active-set tracking; pass null to skip). Scratch arrays must be sized
    * `nU` (`wdg` zeroed between calls — this routine restores zeros).
    */
  def update(u: Int, capFloor: Long, wdg: Array[Int], touched: Array[Int],
             onUpdated: (Int, Long) => Unit): Long = {
    var wedges = 0L
    var nT = 0
    g.foreachNbrU(u) { v =>
      val arr = vAdj(v); val len = vLen(v)
      wedges += len
      var i = 0
      while (i < len) {
        val u2 = arr(i)
        if (u2 != u && alive(u2)) {
          if (wdg(u2) == 0) { touched(nT) = u2; nT += 1 }
          wdg(u2) += 1
        }
        i += 1
      }
    }
    var k = 0
    while (k < nT) {
      val u2 = touched(k)
      val dec = choose2(wdg(u2).toLong)
      wdg(u2) = 0
      if (dec > 0) {
        // atomic capped decrement
        var done = false
        var newVal = 0L
        while (!done) {
          val cur = sup.get(u2)
          newVal = math.max(capFloor, cur - dec)
          done = newVal == cur || sup.compareAndSet(u2, cur, newVal)
          if (newVal == cur) newVal = -1 // no change ⇒ no notification
        }
        if (newVal >= 0 && onUpdated != null) onUpdated(u2, newVal)
      }
      k += 1
    }
    wedges
  }

  private lazy val scratchW = Array.fill(threads)(new Array[Int](g.nU))
  private lazy val scratchT = Array.fill(threads)(new Array[Int](g.nU))
  private lazy val touchedFlag = new Array[Boolean](g.nU)
  // per chunk of a round: the vertices whose support changed, repeats
  // included; kept from round to round, so a round allocates no list
  private lazy val changed = Array.fill(threads)(new Array[Int](16))
  private val changedLen = new Array[Int](threads)

  private def addChanged(t: Int, u: Int): Unit = {
    if (changedLen(t) == changed(t).length) changed(t) = java.util.Arrays.copyOf(changed(t), 2 * changed(t).length)
    changed(t)(changedLen(t)) = u
    changedLen(t) += 1
  }

  /** Restricts the live set to `members`, as if every other vertex had been
    * peeled: the live count and the live V degrees count members only.
    */
  def keepOnly(members: Array[Int]): Unit = {
    java.util.Arrays.fill(alive, false)
    members.foreach(alive(_) = true)
    aliveCount = members.length
    var u = 0
    while (u < g.nU) {
      if (!alive(u)) {
        var i = g.uOff(u)
        while (i < g.uOff(u + 1)) { curDegV.decrementAndGet(g.uAdj(i)); i += 1 }
      }
      u += 1
    }
  }

  /** Pops `heap` down to the live vertices at the minimum support and writes
    * them to `batch`; returns how many (their support is `sup.get(batch(0))`).
    * The heap holds one entry `pack(sup, u)` for each live `u`'s current
    * support, plus stale entries of peeled vertices and superseded supports,
    * which are dropped; supports only decrease, so a stale entry never
    * matches a live support. Stops as soon as the batch holds every live
    * vertex, so the stale tail the heap keeps after the last batch is never
    * drained.
    */
  def gatherMin(heap: LongMinHeap, batch: Array[Int]): Int = {
    var nB = 0
    var minSup = -1L
    var gathering = true
    while (gathering && nB < aliveCount && !heap.isEmpty) {
      val top = heap.peek
      val u = unpackId(top)
      val s = unpackSup(top)
      if (!alive(u) || sup.get(u) != s) heap.pop()
      else if (nB == 0 || s == minSup) { minSup = s; heap.pop(); batch(nB) = u; nB += 1 }
      else gathering = false
    }
    require(nB > 0, "heap exhausted with vertices remaining")
    nB
  }

  /** One synchronization round of batch peeling (ParB's round, CD's range
    * peel and the level batches of [[BUP.peel]]): `update` for
    * `batch(0 until n)`, split into at most `threads` chunks, each with its
    * own scratch, all decrements capped at `floor`. One chunk runs on the
    * calling thread, more run on `pool` (which may be null when `threads`
    * is 1). The batch must already be marked peeled. Charges the round's
    * wedges to DGM and returns them; then calls `onChanged` (unless null)
    * once for each distinct vertex whose support changed, when every
    * support has settled. Capped decrements commute, so neither supports
    * nor wedges depend on the order or the chunking of the batch.
    */
  def peelBatch(batch: Array[Int], n: Int, floor: Long, pool: ExecutorService, onChanged: Int => Unit): Long = {
    val chunk = math.max(1, (n + threads - 1) / threads)
    val chunks = math.max(1, (n + chunk - 1) / chunk)
    def part(t: Int): Long = {
      changedLen(t) = 0
      val note: (Int, Long) => Unit = if (onChanged == null) null else (u2, _) => addChanged(t, u2)
      var w = 0L
      var k = t * chunk
      val until = math.min(n, k + chunk)
      while (k < until) {
        w += update(batch(k), floor, scratchW(t), scratchT(t), note)
        k += 1
      }
      w
    }
    val wedges =
      if (chunks == 1) part(0)
      else pool.invokeAll((0 until chunks).map(t => new Callable[Long] { def call(): Long = part(t) }).asJava)
        .asScala.map(_.get()).sum
    chargeWedges(wedges)
    if (onChanged != null) {
      var t = 0
      while (t < chunks) {
        val us = changed(t)
        var k = 0
        while (k < changedLen(t)) {
          val u2 = us(k)
          if (!touchedFlag(u2)) { touchedFlag(u2) = true; onChanged(u2) }
          k += 1
        }
        t += 1
      }
      t = 0
      while (t < chunks) {
        val us = changed(t)
        var k = 0
        while (k < changedLen(t)) { touchedFlag(us(k)) = false; k += 1 }
        t += 1
      }
    }
    wedges
  }

  /** Charge `w` traversed wedges against the DGM budget and compact the
    * V adjacency (drop edges to peeled vertices) once the traversal since
    * the last compaction exceeds `m` — the paper's amortization rule that
    * keeps DGM overhead within the peeling complexity.
    */
  def chargeWedges(w: Long): Unit = if (enableDGM) {
    wedgesSinceCompact += w
    if (wedgesSinceCompact > g.m.toLong) { compact(); wedgesSinceCompact = 0L }
  }

  private def compact(): Unit = {
    var v = 0
    while (v < g.nV) {
      val arr = vAdj(v); val len = vLen(v)
      var w = 0; var i = 0
      while (i < len) {
        val u2 = arr(i)
        if (alive(u2)) { arr(w) = u2; w += 1 }
        i += 1
      }
      vLen(v) = w
      v += 1
    }
  }
}
