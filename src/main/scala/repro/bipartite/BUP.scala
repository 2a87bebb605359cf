package repro.bipartite

/** Metrics common to the peeling kernels.
  *
  * @param cntWedges  wedges traversed by butterfly counting (initial pvBcnt
  *                   plus, for RECEIPT, any HUC re-counts)
  * @param peelWedges wedges traversed by peeling `update` calls
  * @param rounds     synchronization rounds ρ: peeling iterations with a
  *                   barrier (batch rounds for ParB, CD iterations for
  *                   RECEIPT; 0 extra for FD, whose tasks sync only once)
  */
final case class PeelMetrics(
    cntWedges: Long,
    peelWedges: Long,
    rounds: Long,
    cntTimeMs: Double,
    peelTimeMs: Double
) {
  def totalWedges: Long = cntWedges + peelWedges
  def totalTimeMs: Double = cntTimeMs + peelTimeMs
}

final case class TipResult(tips: Array[Long], metrics: PeelMetrics)

/** Sequential Bottom-Up Peeling (alg. 2) — the paper's exact baseline and
  * also the engine RECEIPT FD applies to each induced subgraph.
  *
  * Minimum-support retrieval uses a lazy-deletion binary min-heap (the
  * paper's implementation note: a k-way min-heap beat both Julienne-style
  * bucketing and Fibonacci heaps in practice; a binary heap has the same
  * asymptotics as k-way and is the natural Scala analogue). Vertices leave
  * in level batches: every live vertex at the minimum support `k` is
  * peeled at once, with updates capped at `k` ([[PeelState.peelBatch]] on
  * one thread). Capped decrements commute and a vertex pushed down to `k`
  * joins the next batch at `k`, so the tips are those of one-at-a-time
  * peeling, and without HUC so is the work: every vertex is updated once.
  */
object BUP {
  import Peeling._

  /** Full tip decomposition of `g`'s U side: counts butterflies, then peels
    * without HUC, so Λ is alg. 2's Σ_u Σ_{v∈N_u} d_v.
    * @param countThreads threads for the initial pvBcnt (the baseline tables
    *                     time pvBcnt separately from the sequential peel)
    */
  def run(g: BipartiteGraph, countThreads: Int = 1): TipResult = {
    val t0 = System.nanoTime()
    val counts = ButterflyCounting.vertexPriority(g, countThreads)
    val t1 = System.nanoTime()
    val members = Array.tabulate(g.nU)(identity)
    val r = peel(g, counts.cntU, members, enableDGM = false, enableHUC = false)
    TipResult(
      r.tips,
      r.metrics.copy(cntWedges = counts.wedges, cntTimeMs = (t1 - t0) / 1e6)
    )
  }

  /** Peel `members ⊆ U` of `g` with supports initialized from `initSup`
    * (indexed by vertex id). Vertices outside `members` are treated as
    * absent — callers pass an induced subgraph whose other U vertices have
    * empty adjacency (RECEIPT FD) or the full vertex set (baseline BUP).
    * Returns tips (entries for non-members are -1). Throws
    * `IllegalArgumentException` if a member's support is ≥ 2^42
    * ([[Peeling.MaxSup]]), which the packed heap key cannot hold.
    *
    * With `enableHUC`, each level batch follows the paper's HUC rule: when
    * the batch's stored peel cost exceeds the Chiba–Nishizeki bound of the
    * live subgraph, the members' supports are re-counted instead of
    * updated ([[Recount]]), and a batch that empties the set needs neither.
    * The re-counts' wedges are part of the returned `peelWedges`.
    */
  def peel(g: BipartiteGraph, initSup: Array[Long], members: Array[Int],
           enableDGM: Boolean, enableHUC: Boolean = true): TipResult = {
    val t0 = System.nanoTime()
    val st = new PeelState(g, enableDGM)
    // non-members must not receive updates nor be popped
    st.keepOnly(members)

    val heap = new LongMinHeap(members.length + 16)
    // supports only decrease, so checking the initial ones covers every push
    members.foreach { v => requirePackable(initSup(v), v); st.sup.set(v, initSup(v)); heap.push(pack(initSup(v), v)) }

    val tips = Array.fill[Long](g.nU)(-1L)
    val batch = new Array[Int](members.length)
    var recount: Recount = null // made at the first re-count
    var cRcnt = if (enableHUC) st.recountCost else 0L
    var peelWedges = 0L
    val push: Int => Unit = u => heap.push(pack(st.sup.get(u), u))

    while (st.aliveCount > 0) {
      val n = st.gatherMin(heap, batch)
      val k = st.sup.get(batch(0))
      var cost = 0L
      var i = 0
      while (i < n) {
        val b = batch(i)
        tips(b) = k
        if (enableHUC) cost += st.storedPeelCost(b)
        st.markPeeled(b)
        i += 1
      }
      if (enableHUC && st.aliveCount == 0) () // the last batch changes nothing
      else if (enableHUC && cost > cRcnt) {
        if (recount == null) recount = new Recount(st, initSup, members)
        peelWedges += recount(k, heap)
        cRcnt = st.recountCost
      } else peelWedges += st.peelBatch(batch, n, k, null, push)
    }
    val t1 = System.nanoTime()
    TipResult(tips, PeelMetrics(0L, peelWedges, 0L, 0.0, (t1 - t0) / 1e6))
  }

  /** HUC's re-count inside [[peel]]. Support adds up over partner vertices,
    * and capped decrements leave a live member at `max(k, ⋈^init − D)` at
    * level `k`, where `D` is the butterflies it shares with the members
    * peeled so far: `D = cnt_{G[members]} − cnt_live`. So the exact support
    * is `max(k, ⋈^init − cnt_{G[members]} + cnt_live)`. `⋈^init` also holds
    * the butterflies a member shares with vertices outside `g` (FD's later
    * subsets), which a re-count of `g` alone would drop. `cnt_{G[members]}`
    * is counted once, at the first re-count; each count reuses one
    * workspace.
    */
  private final class Recount(st: PeelState, initSup: Array[Long], members: Array[Int]) {
    private val ws = new ButterflyCounting.Workspace(st.g)
    private var base: Array[Long] = null // ⋈^init − cnt_{G[members]}

    /** Sets every live member's support at level `k` and pushes those that
      * changed onto `heap`; returns the wedges the counts traversed.
      */
    def apply(k: Long, heap: LongMinHeap): Long = {
      var wedges = 0L
      if (base == null) {
        val inSet = new Array[Boolean](st.g.nU)
        members.foreach(inSet(_) = true)
        val all = ButterflyCounting.vertexPriorityLive(ws, inSet, null)
        base = new Array[Long](st.g.nU)
        members.foreach(u => base(u) = initSup(u) - all.cntU(u))
        wedges += all.wedges
      }
      val live = ButterflyCounting.vertexPriorityLive(ws, st.alive, null)
      members.foreach { u =>
        if (st.alive(u)) {
          val s = math.max(k, base(u) + live.cntU(u))
          if (s != st.sup.get(u)) { st.sup.set(u, s); heap.push(pack(s, u)) }
        }
      }
      wedges + live.wedges
    }
  }
}
