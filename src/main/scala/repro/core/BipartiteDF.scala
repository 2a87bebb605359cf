package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.bipartite.BipartiteGraph

/** DataFrame-level operations on bipartite edge sets `(u: Long, v: Long)`.
  * These are the relational building blocks shared by the Spark butterfly
  * counter and the Spark RECEIPT implementation.
  */
object BipartiteDF {

  /** Canonicalize: exactly the two columns `u`, `v` as longs, deduplicated. */
  def canonical(edges: DataFrame): DataFrame =
    edges.select(col("u").cast("long") as "u", col("v").cast("long") as "v").distinct()

  /** Per-`v` degrees: `(v, dv)`. */
  def degreesV(edges: DataFrame): DataFrame =
    edges.groupBy("v").agg(count(lit(1)) as "dv")

  /** Per-`u` degrees: `(u, du)`. */
  def degreesU(edges: DataFrame): DataFrame =
    edges.groupBy("u").agg(count(lit(1)) as "du")

  /** Σ_v C(d_v, 2): wedges with both endpoints in U. */
  def wedgesEndpointsU(edges: DataFrame): Long = {
    val r = degreesV(edges).agg(sum(SparkButterfly.choose2(col("dv")))).head()
    if (r.isNullAt(0)) 0L else r.getLong(0) // the sum of no rows is null
  }

  /** Collect a DataFrame of edges into a local [[BipartiteGraph]]. */
  def toLocal(edges: DataFrame, nU: Int, nV: Int): BipartiteGraph = {
    val packed = canonical(edges).collect().map { r =>
      (r.getLong(0) << 32) | (r.getLong(1) & 0xffffffffL)
    }
    BipartiteGraph.fromPacked(nU, nV, packed, dedup = true)
  }

  /** Mirror of the edge set (swap sides) — decomposing V is decomposing U of
    * the mirrored graph, as the paper does for the "*V" table rows.
    */
  def transposed(edges: DataFrame): DataFrame =
    edges.select(col("v") as "u", col("u") as "v")
}
