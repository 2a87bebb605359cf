package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, StandardCopyOption}
import repro.bipartite.{BipartiteGraph, BUP}

/** BUP's tips, the oracle every timed decomposition is checked against.
  *
  * A reference is a SHA-256 checksum of the tip array, keyed by row, graph
  * seed and edge count. Checksums for the seeds in `reference.tsv` ship with
  * the benchmark, because sequential BUP takes about 40 s on TrU; any other
  * seed runs BUP once, before timing, and keeps the checksum in a cache
  * directory so later runs of that seed skip it.
  */
object Reference {

  final case class Key(row: String, graphSeed: Long, m: Int) {
    def tsv: String = s"$row\t$graphSeed\t$m"
  }

  /** Where a reference came from: "stored", "cache" or "bup". */
  final case class Ref(checksum: String, source: String, bupMs: Double)

  def key(row: Row, g: BipartiteGraph): Key = Key(row.name, row.cfg.seed, g.m)

  def checksum(tips: Array[Long]): String = {
    val buf = java.nio.ByteBuffer.allocate(8 * tips.length)
    tips.foreach(buf.putLong)
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array())
      .take(12).map(b => f"${b & 0xff}%02x").mkString
  }

  lazy val stored: Map[Key, String] = {
    val in = getClass.getResourceAsStream("/perfbench/reference.tsv")
    if (in == null) Map.empty
    else try {
      scala.io.Source.fromInputStream(in, "UTF-8").getLines()
        .filter(l => l.nonEmpty && !l.startsWith("#"))
        .map { l => val f = l.split('\t'); Key(f(0), f(1).toLong, f(2).toInt) -> f(3) }
        .toMap
    } finally in.close()
  }

  def get(row: Row, g: BipartiteGraph, cacheDir: Path, threads: Int): Ref = {
    val k = key(row, g)
    stored.get(k).map(Ref(_, "stored", 0.0)).getOrElse {
      val file = cacheDir.resolve(s"${k.row}-${k.graphSeed}-${k.m}.sha")
      if (Files.exists(file)) Ref(new String(Files.readAllBytes(file), UTF_8).trim, "cache", 0.0)
      else {
        val t0 = System.nanoTime()
        val sum = checksum(BUP.run(g, countThreads = threads).tips)
        val ms = (System.nanoTime() - t0) / 1e6
        Files.createDirectories(cacheDir)
        val tmp = Files.createTempFile(cacheDir, k.row, ".tmp")
        Files.write(tmp, sum.getBytes(UTF_8))
        Files.move(tmp, file, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
        Ref(sum, "bup", ms)
      }
    }
  }

  /** `print <workload> <from> <to>` writes `reference.tsv` lines for
    * benchmark seeds `from..to`; `ensure <workload> <seed> <cacheDir>` runs
    * BUP for every row of that seed whose checksum is neither stored nor
    * cached. BUP's lazy heap needs about 3 GB on TrU, so `run.py` calls
    * `ensure` in its own JVM before the benchmark JVM starts.
    */
  def main(args: Array[String]): Unit = {
    val w = Workloads.byName(args(1))
    val threads = Runtime.getRuntime.availableProcessors()
    args(0) match {
      case "print" =>
        for (s <- args(2).toLong to args(3).toLong; row <- w.rows(s)) {
          val g = row.graph()
          println(s"${key(row, g).tsv}\t${checksum(BUP.run(g, countThreads = threads).tips)}")
          Console.out.flush()
        }
      case "ensure" =>
        for (row <- w.rows(args(2).toLong)) {
          val r = get(row, row.graph(), java.nio.file.Paths.get(args(3)), threads)
          System.err.println(f"[perfbench] reference ${row.name} seed ${row.cfg.seed}: ${r.source} ${r.bupMs / 1e3}%.1f s")
        }
      case other => throw new IllegalArgumentException(s"unknown mode $other")
    }
  }
}
