package repro.bipartite

import org.scalatest.funsuite.AnyFunSuite

class ReceiptLocalSpec extends AnyFunSuite {

  private def cfg(p: Int, huc: Boolean = true, dgm: Boolean = true, t: Int = 4) =
    ReceiptLocal.Config(P = p, threads = t, enableHUC = huc, enableDGM = dgm)

  for (seed <- 0 until 15)
    test(s"RECEIPT tips equal BUP tips (seed=$seed, P=4)") {
      val nU = 20 + 6 * seed
      val nV = 15 + 4 * seed
      val g = BipartiteGraph.random(nU, nV, 6 * (nU + nV), seed)
      val bup = BUP.run(g).tips
      val rec = ReceiptLocal.run(g, cfg(4)).tips
      assert(rec.toSeq == bup.toSeq, s"seed=$seed")
    }

  for (p <- Seq(1, 2, 3, 8, 16, 64))
    test(s"RECEIPT is invariant to the number of partitions (P=$p)") {
      val g = BipartiteGraph.random(90, 70, 900, seed = 3)
      val bup = BUP.run(g).tips
      assert(ReceiptLocal.run(g, cfg(p)).tips.toSeq == bup.toSeq)
    }

  for ((huc, dgm) <- Seq((false, false), (true, false), (false, true), (true, true)))
    test(s"RECEIPT invariant to optimizations (HUC=$huc, DGM=$dgm)") {
      val g = BipartiteGraph.random(80, 50, 800, seed = 21)
      val bup = BUP.run(g).tips
      assert(ReceiptLocal.run(g, cfg(5, huc, dgm)).tips.toSeq == bup.toSeq)
    }

  test("RECEIPT single-threaded equals multi-threaded") {
    val g = BipartiteGraph.random(150, 100, 2500, seed = 8)
    val a = ReceiptLocal.run(g, cfg(6, t = 1)).tips
    val b = ReceiptLocal.run(g, cfg(6, t = 8)).tips
    assert(a.toSeq == b.toSeq)
  }

  test("RECEIPT on skewed hub graphs equals BUP (HUC territory)") {
    for (seed <- 0 until 5) {
      val rnd = new java.util.Random(seed)
      // few V hubs with huge degree => peel cost >> count cost => HUC triggers
      val es = (0 until 3000).map { _ =>
        val v = if (rnd.nextDouble() < 0.8) rnd.nextInt(4) else 4 + rnd.nextInt(96)
        (rnd.nextInt(400), v)
      }
      val g = BipartiteGraph.fromEdges(400, 100, es)
      val bup = BUP.run(g).tips
      val rec = ReceiptLocal.run(g, cfg(5))
      assert(rec.tips.toSeq == bup.toSeq, s"seed=$seed")
    }
  }

  test("HUC actually triggers on hub-dominated graphs and reduces wedges") {
    val rnd = new java.util.Random(99)
    val es = (0 until 6000).map { _ =>
      val v = if (rnd.nextDouble() < 0.85) rnd.nextInt(3) else 3 + rnd.nextInt(197)
      (rnd.nextInt(800), v)
    }
    val g = BipartiteGraph.fromEdges(800, 200, es)
    val withHuc = ReceiptLocal.run(g, cfg(6, huc = true, dgm = false))
    val noHuc   = ReceiptLocal.run(g, cfg(6, huc = false, dgm = false))
    assert(withHuc.tips.toSeq == noHuc.tips.toSeq)
    assert(withHuc.metrics.hucTriggers > 0, "expected HUC to fire on hub graph")
    assert(withHuc.metrics.totalWedges < noHuc.metrics.totalWedges,
      s"HUC should reduce traversal: ${withHuc.metrics.totalWedges} vs ${noHuc.metrics.totalWedges}")
  }

  test("HUC on a graph of ≥ 1024 nodes: 1 and 4 threads give equal tips, wedges and rounds") {
    val rnd = new java.util.Random(7)
    val es = (0 until 6000).map { _ =>
      val v = if (rnd.nextDouble() < 0.85) rnd.nextInt(3) else 3 + rnd.nextInt(297)
      (rnd.nextInt(800), v)
    }
    val g = BipartiteGraph.fromEdges(800, 300, es)
    assert(g.nU + g.nV >= 1024)
    val one = ReceiptLocal.run(g, cfg(6, t = 1))
    val four = ReceiptLocal.run(g, cfg(6, t = 4))
    assert(four.metrics.hucTriggers > 0, "expected HUC to fire on hub graph")
    assert(one.tips.toSeq == four.tips.toSeq)
    assert(four.tips.toSeq == BUP.run(g).tips.toSeq)
    def work(m: ReceiptLocal.Metrics) =
      (m.cntInitWedges, m.hucWedges, m.cdPeelWedges, m.fdWedges, m.rounds, m.hucTriggers, m.subsets)
    assert(work(one.metrics) == work(four.metrics))
  }

  test("DGM reduces (or preserves) wedge traversal") {
    val g = BipartiteGraph.random(300, 200, 5000, seed = 7)
    val withDgm = ReceiptLocal.run(g, cfg(5, huc = false, dgm = true))
    val noDgm   = ReceiptLocal.run(g, cfg(5, huc = false, dgm = false))
    assert(withDgm.tips.toSeq == noDgm.tips.toSeq)
    assert(withDgm.metrics.totalWedges <= noDgm.metrics.totalWedges)
  }

  test("CD ranges are contiguous, non-overlapping, and cover [0, ∞)") {
    val g = BipartiteGraph.random(120, 80, 1500, seed = 11)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(5))
    assert(cd.lo(0) == 0L)
    for (i <- 1 until cd.subsets) assert(cd.lo(i) == cd.hi(i - 1), s"range $i not contiguous")
    for (i <- 0 until cd.subsets) assert(cd.hi(i) > cd.lo(i))
  }

  test("lemmas 3+4: every vertex's exact tip number falls inside its CD range") {
    for (seed <- 0 until 8) {
      val g = BipartiteGraph.random(70, 50, 700, seed)
      val tips = BUP.run(g).tips
      val cd = ReceiptLocal.coarseDecomposition(g, cfg(4))
      for (u <- 0 until g.nU) {
        val i = cd.subsetOf(u)
        assert(i >= 0, s"unassigned vertex $u")
        assert(tips(u) >= cd.lo(i) && tips(u) < cd.hi(i),
          s"seed=$seed u=$u tip=${tips(u)} not in [${cd.lo(i)}, ${cd.hi(i)})")
      }
    }
  }

  test("⋈^init is the butterfly count w.r.t. vertices in the same or higher subsets") {
    val g = BipartiteGraph.random(50, 40, 500, seed = 19)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(4))
    for (u <- 0 until g.nU) {
      val i = cd.subsetOf(u)
      val mask = Array.tabulate(g.nU)(x => cd.subsetOf(x) >= i)
      val live = ButterflyCounting.bruteForce(g.filterU(mask))
      assert(cd.supInit(u) == live.cntU(u),
        s"u=$u subset=$i supInit=${cd.supInit(u)} expected=${live.cntU(u)}")
    }
  }

  test("every vertex is assigned to exactly one subset") {
    val g = BipartiteGraph.random(100, 60, 1000, seed = 29)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(6))
    assert(cd.subsetOf.forall(_ >= 0))
    assert(cd.subsetOf.forall(_ < cd.subsets))
    val sizes = Array.fill(cd.subsets)(0)
    cd.subsetOf.foreach(sizes(_) += 1)
    assert(sizes.sum == g.nU)
  }

  test("subsets never exceed P+1") {
    for (p <- Seq(1, 3, 10)) {
      val g = BipartiteGraph.random(60, 40, 600, seed = 31)
      val cd = ReceiptLocal.coarseDecomposition(g, cfg(p))
      assert(cd.subsets <= p + 1, s"P=$p got ${cd.subsets}")
    }
  }

  test("RECEIPT synchronization rounds are far below ParB's on larger graphs") {
    val g = BipartiteGraph.random(500, 300, 9000, seed = 37)
    val parb = ParB.run(g, threads = 4)
    val rec = ReceiptLocal.run(g, cfg(6))
    assert(rec.tips.toSeq == parb.tips.toSeq)
    assert(rec.metrics.rounds < parb.metrics.rounds / 4,
      s"ρ_RECEIPT=${rec.metrics.rounds} ρ_ParB=${parb.metrics.rounds}")
  }

  test("paper shape on a scaled-down high-r graph: Λ_RECEIPT < Λ_BUP, ρ_RECEIPT ≤ ρ_ParB / 10") {
    // Tr-lite's degree skew at a tenth of its size
    val g = repro.BipartiteGen.generate(repro.BipartiteGen.byName("Tr").copy(nU = 5200, nV = 2400, targetM = 22000))
    val bup = BUP.run(g)
    val parb = ParB.run(g, threads = 4)
    val rec = ReceiptLocal.run(g, cfg(15))
    assert(rec.tips.toSeq == bup.tips.toSeq)
    assert(rec.metrics.totalWedges < bup.metrics.totalWedges,
      s"Λ_RECEIPT=${rec.metrics.totalWedges} Λ_BUP=${bup.metrics.totalWedges}")
    assert(rec.metrics.rounds * 10 <= parb.metrics.rounds,
      s"ρ_RECEIPT=${rec.metrics.rounds} ρ_ParB=${parb.metrics.rounds}")
  }

  test("FD traverses only induced-subgraph wedges (fewer than CD)") {
    val g = BipartiteGraph.random(200, 150, 3000, seed = 41)
    val rec = ReceiptLocal.run(g, cfg(8, huc = false))
    assert(rec.metrics.fdWedges <= rec.metrics.cdPeelWedges,
      s"FD=${rec.metrics.fdWedges} CD=${rec.metrics.cdPeelWedges}")
  }

  test("complete graph and butterfly-free graph edge cases") {
    assert(ReceiptLocal.run(BipartiteGraph.complete(3, 3), cfg(3)).tips.forall(_ == 6L))
    val star = BipartiteGraph.fromEdges(5, 1, (0 until 5).map(u => (u, 0)))
    assert(ReceiptLocal.run(star, cfg(3)).tips.forall(_ == 0L))
  }

  test("P=1 degenerates to a single coarse subset peeled exactly by FD") {
    val g = BipartiteGraph.random(60, 40, 500, seed = 43)
    val r = ReceiptLocal.run(g, cfg(1))
    assert(r.tips.toSeq == BUP.run(g).tips.toSeq)
    assert(r.cd.subsets <= 2)
  }

  /** Three V hubs carry 85% of the edges, so peeling costs far more than
    * counting: HUC fires in CD and in FD, and CD (P = 15) makes 3 subsets.
    */
  private lazy val hubGraph: BipartiteGraph = {
    val rnd = new java.util.Random(7)
    val es = (0 until 6000).map { _ =>
      val v = if (rnd.nextDouble() < 0.85) rnd.nextInt(3) else 3 + rnd.nextInt(197)
      (rnd.nextInt(800), v)
    }
    BipartiteGraph.fromEdges(800, 200, es)
  }

  private def subsetMembers(cd: ReceiptLocal.CDResult): Array[Array[Int]] =
    Array.tabulate(cd.subsets)(i => cd.subsetOf.indices.filter(cd.subsetOf(_) == i).toArray)

  private def inducedBy(g: BipartiteGraph, ms: Array[Int]): BipartiteGraph = {
    val mask = new Array[Boolean](g.nU)
    ms.foreach(mask(_) = true)
    g.filterU(mask)
  }

  test("FD's HUC re-count is exact on subsets that are not the last") {
    val g = hubGraph
    val bup = BUP.run(g).tips
    for (dgm <- Seq(false, true)) {
      val cd = ReceiptLocal.coarseDecomposition(g, cfg(15, dgm = dgm))
      assert(cd.subsets >= 3)
      val saved = subsetMembers(cd).zipWithIndex.map { case (ms, i) =>
        val induced = inducedBy(g, ms)
        val huc = BUP.peel(induced, cd.supInit, ms, dgm, enableHUC = true)
        val plain = BUP.peel(induced, cd.supInit, ms, dgm, enableHUC = false)
        for (u <- ms) {
          assert(huc.tips(u) == plain.tips(u), s"DGM=$dgm subset $i u=$u")
          assert(huc.tips(u) == bup(u), s"DGM=$dgm subset $i u=$u")
        }
        huc.metrics.peelWedges < plain.metrics.peelWedges
      }
      assert(saved.init.contains(true), s"DGM=$dgm: HUC saved no wedges before the last subset")
    }
  }

  test("fineDecomposition's tips and wedges equal a per-subset filterU + BUP.peel replay") {
    val g = hubGraph
    for (huc <- Seq(false, true); dgm <- Seq(false, true)) {
      val c = cfg(15, huc, dgm)
      val cd = ReceiptLocal.coarseDecomposition(g, c)
      val (tips, fdWedges) = ReceiptLocal.fineDecomposition(g, cd, c)
      val replayTips = Array.fill(g.nU)(-1L)
      var replayWedges = 0L
      for (ms <- subsetMembers(cd)) {
        val r = BUP.peel(inducedBy(g, ms), cd.supInit, ms, dgm, huc)
        ms.foreach(u => replayTips(u) = r.tips(u))
        replayWedges += r.metrics.peelWedges
      }
      assert(tips.toSeq == replayTips.toSeq, s"HUC=$huc DGM=$dgm")
      assert(fdWedges == replayWedges, s"HUC=$huc DGM=$dgm")
    }
  }

  test("cnt + HUC + CD + FD wedges of the layers called one by one equal Metrics.totalWedges") {
    val g = hubGraph
    for (huc <- Seq(false, true); dgm <- Seq(false, true)) {
      val c = cfg(15, huc, dgm)
      val run = ReceiptLocal.run(g, c)
      val cnt = ButterflyCounting.vertexPriority(g, c.threads).wedges
      val cd = ReceiptLocal.coarseDecomposition(g, c)
      val (_, fd) = ReceiptLocal.fineDecomposition(g, cd, c)
      assert(cnt + cd.hucWedges + cd.peelWedges + fd == run.metrics.totalWedges, s"HUC=$huc DGM=$dgm")
      assert(fd == run.metrics.fdWedges, s"HUC=$huc DGM=$dgm")
    }
  }

  test("a failing FD task fails fineDecomposition instead of leaving tips at -1") {
    val g = BipartiteGraph.random(60, 40, 500, seed = 43)
    val cd = ReceiptLocal.coarseDecomposition(g, cfg(4))
    intercept[Exception](ReceiptLocal.fineDecomposition(g, cd.copy(supInit = Array.emptyLongArray), cfg(4)))
  }
}
