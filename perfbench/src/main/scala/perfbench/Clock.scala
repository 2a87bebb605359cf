package perfbench

import java.lang.management.ManagementFactory
import scala.util.control.NonFatal

/** One timed interval: wall time, this JVM's CPU time, and the CPU time the
  * hypervisor stole from the VM meanwhile (all in ms).
  */
final case class Lap(wallMs: Double, cpuMs: Double, stealMs: Double) {
  /** Wall time scaled by the share of its runnable time the process really
    * ran, `wall × cpu / (cpu + steal)`: the wall time on a host that steals
    * nothing, where it equals `wallMs`. On a shared VM the raw wall time of
    * the same decomposition varies by 20–30% with the neighbours' load; this
    * varies by a few percent.
    */
  def adjustedMs: Double = if (cpuMs + stealMs <= 0) wallMs else wallMs * cpuMs / (cpuMs + stealMs)
}

object Clock {
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Steal time of all CPUs so far in ms, from `/proc/stat` (USER_HZ = 100);
    * 0 where that file does not exist.
    */
  def stealMs(): Double = try {
    val f = scala.io.Source.fromFile("/proc/stat")
    try f.getLines().next().trim.split("\\s+")(8).toDouble * 10.0 finally f.close()
  } catch { case NonFatal(_) => 0.0 }

  def time[A](f: => A): (A, Lap) = {
    val s0 = stealMs()
    val c0 = os.getProcessCpuTime
    val t0 = System.nanoTime()
    val r = f
    val t1 = System.nanoTime()
    val c1 = os.getProcessCpuTime
    val s1 = stealMs()
    (r, Lap((t1 - t0) / 1e6, (c1 - c0) / 1e6, s1 - s0))
  }
}
