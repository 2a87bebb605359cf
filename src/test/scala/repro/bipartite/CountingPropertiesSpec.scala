package repro.bipartite

import java.util.concurrent.Executors
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.Assertions
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck properties of vertex-priority counting over graph families
  * that stress its corner cases: hubs, complete and star graphs, an empty
  * side, isolated vertices, duplicate input edges, and graphs with at least
  * 1024 nodes, the size from which counting runs in parallel.
  */
class CountingPropertiesSpec extends AnyFunSuite with BeforeAndAfterAll {
  import CountingPropertiesSpec._

  private val pool = Executors.newFixedThreadPool(4)
  override def afterAll(): Unit = pool.shutdown()

  private def sameCounts(a: ButterflyCounts, b: ButterflyCounts): Boolean =
    a.cntU.sameElements(b.cntU) && a.cntV.sameElements(b.cntV)

  /** Wedges `(sp, mp, ep)` of the combined node space whose endpoint `ep`
    * outranks both `sp` and `mp` (rank: degree descending, id ascending),
    * counted straight from the definition.
    */
  private def wedgesByDefinition(g: BipartiteGraph): Long = {
    val n = g.nU + g.nV
    def deg(x: Int) = if (x < g.nU) g.degU(x) else g.degV(x - g.nU)
    def nbrs(x: Int): Seq[Int] =
      if (x < g.nU) (g.uOff(x) until g.uOff(x + 1)).map(i => g.nU + g.uAdj(i))
      else (g.vOff(x - g.nU) until g.vOff(x - g.nU + 1)).map(i => g.vAdj(i))
    val rank = new Array[Int](n)
    (0 until n).sortBy(x => (-deg(x), x)).zipWithIndex.foreach { case (x, r) => rank(x) = r }
    (for (sp <- 0 until n; mp <- nbrs(sp); ep <- nbrs(mp)
          if ep != sp && rank(ep) < rank(sp) && rank(ep) < rank(mp)) yield 1L).sum
  }

  private def liveEqualsFilterU(c: Case, alive: Array[Boolean], threads: Int): Boolean = {
    val live = ButterflyCounting.vertexPriorityLive(new ButterflyCounting.Workspace(c.g, threads), alive, pool)
    val ref = ButterflyCounting.vertexPriority(c.g.filterU(alive), threads)
    sameCounts(live, ref) && live.wedges == ref.wedges
  }

  test("vertexPriority with 1 and 4 threads equals brute force") {
    check(Prop.forAllNoShrink(small) { c =>
      val slow = ButterflyCounting.bruteForce(c.g)
      sameCounts(ButterflyCounting.vertexPriority(c.g, 1), slow) &&
      sameCounts(ButterflyCounting.vertexPriority(c.g, 4), slow)
    }, 300)
  }

  test("vertexPriority with 1 and 4 threads equals brute force on graphs of ≥ 1024 nodes") {
    check(Prop.forAllNoShrink(large) { c =>
      val seq = ButterflyCounting.vertexPriority(c.g, 1)
      val par = ButterflyCounting.vertexPriority(c.g, 4)
      sameCounts(seq, ButterflyCounting.bruteForce(c.g)) && sameCounts(par, seq) && par.wedges == seq.wedges
    }, 15)
  }

  test("the live-mask count equals counting the filterU graph") {
    val withMask = for { c <- small; alive <- mask(c.nU) } yield (c, alive)
    check(Prop.forAllNoShrink(withMask) { case (c, alive) => liveEqualsFilterU(c, alive, 1) }, 300)
    val largeWithMask = for { c <- large; alive <- mask(c.nU) } yield (c, alive)
    check(Prop.forAllNoShrink(largeWithMask) { case (c, alive) => liveEqualsFilterU(c, alive, 4) }, 15)
  }

  test("one workspace counts live masks in turn as fresh filterU counts do") {
    def inTurn(c: Case, masks: Seq[Array[Boolean]], threads: Int): Boolean = {
      val ws = new ButterflyCounting.Workspace(c.g, threads)
      masks.forall { alive =>
        val live = ButterflyCounting.vertexPriorityLive(ws, alive, pool)
        val ref = ButterflyCounting.vertexPriority(c.g.filterU(alive), threads)
        sameCounts(live, ref) && live.wedges == ref.wedges
      }
    }
    val withMasks = for { c <- small; ms <- Gen.listOfN(4, mask(c.nU)) } yield (c, ms)
    check(Prop.forAllNoShrink(withMasks) { case (c, ms) => inTurn(c, ms, 1) }, 200)
    val largeWithMasks = for { c <- large; ms <- Gen.listOfN(3, mask(c.nU)) } yield (c, ms)
    check(Prop.forAllNoShrink(largeWithMasks) { case (c, ms) => inTurn(c, ms, 4) }, 10)
  }

  test("wedges are the wedges whose endpoint outranks start and middle") {
    check(Prop.forAllNoShrink(small)(c => ButterflyCounting.vertexPriority(c.g).wedges == wedgesByDefinition(c.g)), 300)
    check(Prop.forAllNoShrink(large)(c => ButterflyCounting.vertexPriority(c.g, 4).wedges == wedgesByDefinition(c.g)), 5)
  }
}

/** The graph families and the ScalaCheck runner, shared with
  * [[TipPropertiesSpec]].
  */
object CountingPropertiesSpec {

  private def edgesOf(nU: Int, nV: Int, m: Int, hubs: Int, hubShare: Double): Gen[Seq[(Int, Int)]] =
    Gen.listOfN(m, for {
      u <- Gen.choose(0, nU - 1)
      toHub <- Gen.prob(hubShare)
      v <- Gen.choose(0, (if (toHub) hubs else nV) - 1)
    } yield (u, v))

  val random: Gen[Case] = for {
    nU <- Gen.choose(1, 40); nV <- Gen.choose(1, 40); m <- Gen.choose(0, 300)
    es <- edgesOf(nU, nV, m, 1, 0.0)
  } yield Case("random", nU, nV, es)

  val skewedHub: Gen[Case] = for {
    nU <- Gen.choose(20, 120); nV <- Gen.choose(5, 40); hubs <- Gen.choose(1, 3); m <- Gen.choose(50, 600)
    es <- edgesOf(nU, nV, m, hubs, 0.7)
  } yield Case("skewedHub", nU, nV, es)

  val complete: Gen[Case] = for { a <- Gen.choose(1, 8); b <- Gen.choose(1, 8) }
    yield Case("complete", a, b, for (u <- 0 until a; v <- 0 until b) yield (u, v))

  val star: Gen[Case] = for { k <- Gen.choose(1, 30); centreInU <- Gen.prob(0.5) } yield
    if (centreInU) Case("star", 1, k, (0 until k).map(v => (0, v)))
    else Case("star", k, 1, (0 until k).map(u => (u, 0)))

  val emptySide: Gen[Case] = for { n <- Gen.choose(1, 20); uEmpty <- Gen.prob(0.5) } yield
    if (uEmpty) Case("emptySide", 0, n, Nil) else Case("emptySide", n, 0, Nil)

  val isolated: Gen[Case] = for {
    c <- random; extraU <- Gen.choose(1, 20); extraV <- Gen.choose(1, 20)
  } yield Case("isolated", c.nU + extraU, c.nV + extraV, c.edges)

  val duplicate: Gen[Case] = for {
    c <- skewedHub; reps <- Gen.listOfN(c.edges.size, Gen.choose(1, 3)); seed <- Gen.long
  } yield Case("duplicate", c.nU, c.nV,
    new scala.util.Random(seed).shuffle(c.edges.zip(reps).flatMap { case (e, r) => Seq.fill(r)(e) }))

  val small: Gen[Case] =
    Gen.oneOf(random, skewedHub, complete, star, emptySide, isolated, duplicate)

  /** nU + nV ≥ 1024, a few hubs carrying half the edges. */
  val large: Gen[Case] = for {
    nU <- Gen.choose(600, 900); nV <- Gen.choose(424, 600); hubs <- Gen.choose(2, 6); m <- Gen.choose(2000, 4000)
    es <- edgesOf(nU, nV, m, hubs, 0.5)
  } yield Case("large", nU, nV, es)

  def mask(nU: Int): Gen[Array[Boolean]] =
    Gen.oneOf(0.0, 0.3, 0.7, 1.0).flatMap(p => Gen.listOfN(nU, Gen.prob(p)).map(_.toArray))

  /** Checks `p` on `cases` cases from a fixed seed; fails with ScalaCheck's
    * report, which names the failing case.
    */
  def check(p: Prop, cases: Int): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(cases).withInitialSeed(Seed(20190805L))
    val r = Test.check(params, p)
    Assertions.assert(r.passed, r.status.toString)
  }

  /** A generated graph with the family it came from, for failure reports. */
  final case class Case(kind: String, nU: Int, nV: Int, edges: Seq[(Int, Int)]) {
    lazy val g: BipartiteGraph = BipartiteGraph.fromEdges(nU, nV, edges)
    override def toString: String = s"$kind(nU=$nU, nV=$nV, edges=${edges.size})"
  }
}
