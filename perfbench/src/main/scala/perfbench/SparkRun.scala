package perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Jobs, stages, tasks and shuffle bytes seen while it was registered. */
final class JobCounter extends SparkListener {
  @volatile var jobs = 0
  @volatile var stages = 0
  @volatile var tasks = 0L
  @volatile var shuffleWriteBytes = 0L
  private val markerStages = scala.collection.mutable.Set[Int]()
  private var markerJob = -1
  private val markerDone = new CountDownLatch(1)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (e.properties != null && e.properties.getProperty(JobCounter.MarkerKey) != null) {
      markerJob = e.jobId
      markerStages ++= e.stageIds
    } else jobs += 1

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    if (!markerStages.contains(e.stageInfo.stageId)) {
      stages += 1
      tasks += e.stageInfo.numTasks
      val m = e.stageInfo.taskMetrics
      if (m != null) shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) markerDone.countDown()

  /** Listener events arrive asynchronously. Runs a one-task marker job and
    * waits until its end event arrives; events are delivered in order, so
    * by then every earlier job has been counted.
    */
  def drain(spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    sc.setLocalProperty(JobCounter.MarkerKey, "1")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(JobCounter.MarkerKey, null)
    require(markerDone.await(60, TimeUnit.SECONDS), "Spark listener events did not drain within 60 s")
  }
}

object JobCounter { val MarkerKey = "perfbench.marker" }

object SparkRun {

  /** A local session configured as the repository's Spark tests configure
    * theirs: 64 shuffle partitions and broadcast joins off.
    */
  def session(master: String, localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(master)
      .appName("receipt-perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", localDir)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** Runs `f` with a fresh [[JobCounter]] registered, then drops every cached
    * DataFrame and persisted RDD the run left behind.
    */
  def counted[A](spark: SparkSession)(f: => A): (A, JobCounter) = {
    val counter = new JobCounter
    spark.sparkContext.addSparkListener(counter)
    try {
      val r = f
      counter.drain(spark)
      (r, counter)
    } finally {
      spark.sparkContext.removeSparkListener(counter)
      release(spark)
    }
  }

  def release(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
  }
}
