package perfbench

import repro.BipartiteGen
import repro.BipartiteGen.DatasetConfig
import repro.bipartite.BipartiteGraph

/** One table row: a "-lite" dataset and the side whose tip numbers are
  * computed. A V row decomposes the transposed graph, as the paper does.
  */
final case class Row(cfg: DatasetConfig, side: String) {
  def name: String = cfg.name + side

  def graph(): BipartiteGraph = {
    val g = BipartiteGen.generate(cfg)
    if (side == "U") g else g.transpose
  }
}

/** @param baselines  also time `ParB.run` and `BUP.run` on every row
  * @param sparkRows  rows the traced run also decomposes with `SparkReceipt`
  */
final case class Workload(name: String, rowTags: Seq[String], baselines: Boolean = false,
                          sparkRows: Seq[String] = Nil) {
  /** The workload's rows for benchmark seed `seed`. Seed 0 keeps each
    * dataset's own seed, so it reproduces the Table 3 graphs; any other seed
    * gives an unseen graph of the same shape.
    */
  def rows(seed: Long): Seq[Row] = rowTags.map { tag =>
    val cfg = BipartiteGen.byName(tag.init)
    Row(cfg.copy(seed = cfg.seed + seed), tag.takeRight(1))
  }
}

object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("TrU", Seq("TrU")),
    Workload("EnU", Seq("EnU")),
    Workload("Vsides", Seq("ItV", "DeV", "OrV", "LjV", "EnV", "TrV"), baselines = true, sparkRows = Seq("ItV"))
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
