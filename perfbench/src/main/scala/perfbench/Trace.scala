package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (0 for a top-level span); `counts` holds the work the call reported.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long,
                      counts: Map[String, Double]) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder. Spans are kept until the run ends and are then
  * written into the report; nothing is logged while timing.
  */
final class Tracer {
  private val done = ArrayBuffer[Span]()
  private var stack: List[Int] = Nil
  private var nextId = 1
  private val origin = System.nanoTime()

  def span[A](name: String)(f: => A): A = spanWith(name, (_: A) => Map.empty[String, Double])(f)

  /** Times `f` as a span named `name`; `counts` derives work counts from
    * its result.
    */
  def spanWith[A](name: String, counts: A => Map[String, Double])(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(0)
    stack = id :: stack
    val t0 = System.nanoTime()
    try {
      val r = f
      val t1 = System.nanoTime()
      done += Span(id, parent, name, t0 - origin, t1 - origin, counts(r))
      r
    } finally stack = stack.tail
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)
  def named(name: String): Seq[Span] = spans.filter(_.name == name)

  def children(s: Span): Seq[Span] = spans.filter(_.parent == s.id)
}
