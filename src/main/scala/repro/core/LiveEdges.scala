package repro.core

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.bipartite.PeelState

/** The live edge set of a Spark peel and its batch-peel round, shared by
  * [[SparkReceipt]]'s CD and [[SparkParB]].
  *
  * Peeled vertices are anti-joined out of the edge set every round, so no
  * stale wedges are ever shuffled (DGM is structural here). Each round's
  * edge set is cached and materializes with the next round's job; every
  * [[LiveEdges.CheckpointEvery]] rounds a local checkpoint truncates the
  * lineage, after which the cached intermediates are dropped. `close`
  * releases whatever is still cached.
  */
final class LiveEdges(edgesIn: DataFrame) extends AutoCloseable {
  private val spark = edgesIn.sparkSession
  import spark.implicits._

  /** The canonical input edges, cached. */
  val initial: DataFrame = BipartiteDF.canonical(edgesIn).cache()
  initial.count()

  private var cur = initial
  private var sinceCheckpoint = 0
  // Cached intermediates are unpersisted only once a later checkpoint has
  // materialized, so no live lineage ever points at dropped blocks.
  private val pendingUnpersist = ArrayBuffer[DataFrame]()

  def current: DataFrame = cur

  private def ids(batch: Array[Int]): DataFrame = batch.toSeq.map(_.toLong).toDF("u")

  /** Removes `batch`'s edges from the live set. */
  def drop(batch: Array[Int]): Unit = dropIds(ids(batch))

  private def dropIds(peeled: DataFrame): Unit = {
    val next = cur.join(peeled, Seq("u"), "left_anti")
    pendingUnpersist += cur
    cur =
      if (sinceCheckpoint >= LiveEdges.CheckpointEvery) {
        sinceCheckpoint = 0
        val n = next.localCheckpoint(true) // eager: lineage truncated here
        pendingUnpersist.foreach(_.unpersist())
        pendingUnpersist.clear()
        n
      } else {
        sinceCheckpoint += 1
        next.cache() // lazy: materializes with the next round's job
      }
  }

  /** One batch-peel round as one Spark job: the peeled vertices' edges joined
    * with the live edges give every wedge `u–v–u'`, aggregation by `(u, u')`
    * yields shared-butterfly decrements `C(c,2)`, and a second aggregation
    * by `u'` one combined update per 2-hop neighbour, applied to `st` capped
    * at `floor`. `batch` must already be marked peeled in `st`; its edges
    * leave the live set. Returns the wedges traversed.
    */
  def peelRound(st: PeelState, batch: Array[Int], floor: Long): Long = {
    val peeled = ids(batch)
    val updates = cur.join(peeled, "u").select(col("u") as "pu", col("v"))
      .join(cur.select(col("u") as "u2", col("v")), "v")
      .where(col("u2") =!= col("pu"))
      .groupBy("pu", "u2").agg(count(lit(1)) as "c")
      .groupBy("u2")
      .agg(sum(SparkButterfly.choose2(col("c"))) as "dec", sum(col("c")) as "wsum")
      .collect()
    var wedges = 0L
    updates.foreach { r =>
      val u2 = r.getLong(0).toInt
      val dec = r.getLong(1)
      wedges += r.getLong(2)
      if (st.alive(u2) && dec > 0) st.sup.set(u2, math.max(floor, st.sup.get(u2) - dec))
    }
    dropIds(peeled)
    wedges
  }

  def close(): Unit = {
    (pendingUnpersist :+ cur).foreach(_.unpersist())
    pendingUnpersist.clear()
  }
}

object LiveEdges {
  val CheckpointEvery = 8

  /** Runs `f` with few shuffle partitions and adaptive execution off, then
    * restores both. The peels run many small iterative jobs; at reproduction
    * scale wide shuffles and adaptive re-planning are pure overhead.
    */
  def withSmallShuffles[A](spark: SparkSession)(f: => A): A = {
    val prevShuffle = spark.conf.get("spark.sql.shuffle.partitions")
    val prevAqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try f
    finally {
      spark.conf.set("spark.sql.shuffle.partitions", prevShuffle)
      spark.conf.set("spark.sql.adaptive.enabled", prevAqe)
    }
  }
}
