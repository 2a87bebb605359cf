package repro.bipartite

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck properties of the tip-decomposition engines over the graph
  * families of [[CountingPropertiesSpec]]: BUP, ParB and RECEIPT return the
  * same tips under every setting, and on small graphs those are
  * `ReferenceTip`'s.
  */
class TipPropertiesSpec extends AnyFunSuite {
  import CountingPropertiesSpec._

  /** RECEIPT under HUC on/off × DGM on/off × P ∈ {1, 4, 15} × threads {1, 4}. */
  private val configs =
    for (huc <- Seq(false, true); dgm <- Seq(false, true); p <- Seq(1, 4, 15); t <- Seq(1, 4))
      yield ReceiptLocal.Config(P = p, threads = t, enableHUC = huc, enableDGM = dgm)

  /** Every engine's tips on `g` equal `expected`. */
  private def allEqual(g: BipartiteGraph, expected: Seq[Long]): Boolean =
    BUP.run(g).tips.toSeq == expected &&
      Seq(1, 4).forall(t => ParB.run(g, t).tips.toSeq == expected) &&
      configs.forall(c => ReceiptLocal.run(g, c).tips.toSeq == expected)

  test("BUP, ParB and RECEIPT under every HUC/DGM/P/threads setting equal ReferenceTip") {
    check(Prop.forAllNoShrink(small)(c => allEqual(c.g, ReferenceTip.tipNumbers(c.g).toSeq)), 150)
  }

  test("BUP, ParB and RECEIPT under every setting agree on graphs of ≥ 1024 nodes") {
    check(Prop.forAllNoShrink(large)(c => allEqual(c.g, BUP.run(c.g).tips.toSeq)), 6)
  }
}
