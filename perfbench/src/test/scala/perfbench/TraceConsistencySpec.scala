package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.BipartiteGen
import repro.BipartiteGen.DatasetConfig
import repro.bipartite.ReceiptLocal

/** The counts the traced run records at layer boundaries must add up to
  * the aggregate `ReceiptLocal.Metrics` of an untraced run on the same graph.
  */
class TraceConsistencySpec extends AnyFunSuite {

  // A BipartiteGen graph shaped like En-lite (V hubs, |U| ≫ |V|), small
  // enough for a unit test but large enough to trigger HUC and fill P subsets.
  private val shapes = Seq(
    DatasetConfig("t1", nU = 3000, nV = 500, targetM = 15000, alphaU = 0.5, alphaV = 1.18, seed = 7),
    DatasetConfig("t2", nU = 1200, nV = 2400, targetM = 12000, alphaU = 0.6, alphaV = 1.1, seed = 11)
  )

  for (shape <- shapes; threads <- Seq(1, 3)) test(s"${shape.name}: trace sums equal Metrics (threads=$threads)") {
    val g = BipartiteGen.generate(shape)
    val cfg = ReceiptLocal.Config(P = 6, threads = threads)
    val run = ReceiptLocal.run(g, cfg)
    val rt = LocalTrace.traceRow(new Tracer, g, cfg)

    assert(rt.replay.map(_.wedges).sum == run.metrics.fdWedges, "replayed FD wedges sum to Metrics.fdWedges")
    assert(rt.replayTips.sameElements(rt.tips), "replay tips equal fineDecomposition's")
    assert(rt.tips.sameElements(run.tips), "traced tips equal ReceiptLocal.run's")
    assert(rt.countWedges + rt.cd.hucWedges + rt.cd.peelWedges + rt.replayWedges == run.metrics.totalWedges,
      "cnt + huc + cd + fd wedges equal totalWedges")
    assert(rt.totalWedges == run.metrics.totalWedges)
    assert(rt.replay.map(_.n).sum == g.nU, "subset sizes sum to nU")
    assert(rt.cd.subsets == run.metrics.subsets && rt.cd.rounds == run.metrics.rounds)
    assert(run.metrics.hucTriggers > 0 || shape.name == "t2")
  }

  test("spans record their parent and enclose their children") {
    val tr = new Tracer
    tr.span("outer")(tr.spanWith("inner", (x: Int) => Map("x" -> x.toDouble)) { Thread.sleep(5); 3 })
    val Seq(inner, outer) = tr.spans.sortBy(_.name)
    assert(inner.parent == outer.id && outer.parent == 0)
    assert(tr.children(outer) == Seq(inner) && inner.counts == Map("x" -> 3.0))
    assert(outer.startNs <= inner.startNs && inner.endNs <= outer.endNs && inner.ms >= 4.0)
  }
}
