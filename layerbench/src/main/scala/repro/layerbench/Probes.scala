package repro.layerbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** JVM-wide readings taken around one pipeline iteration. */
object JvmProbe {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).toSeq
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Collect garbage and restart the peak readings of the heap pools. */
  def resetPeaks(): Unit = { System.gc(); heapPools.foreach(_.resetPeakUsage()) }

  /** Sum of the heap pools' peak use since `resetPeaks`, in MB. Young
    * pools fill to their capacity before a collection, so this tracks
    * the heap size more than the program.
    */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1e6

  /** Peak use of the old generation since `resetPeaks`, in MB. Under G1
    * every n x n matrix is a humongous object allocated there directly,
    * so this follows the pipeline's largest live working set.
    */
  def oldGenPeakMb: Double = heapPools.filter(_.getName.contains("Old Gen")).map(_.getPeakUsage.getUsed).sum / 1e6

  def gcCount: Long = gcs.map(_.getCollectionCount).sum
  def gcMillis: Long = gcs.map(_.getCollectionTime).sum

  /** Bytes allocated so far by the threads alive now. */
  def allocatedBytes: Long = {
    val ids = threads.getAllThreadIds
    threads.getThreadAllocatedBytes(ids).filter(_ > 0).sum
  }
}

/** Counts the jobs, stages and tasks Spark runs, from the listener bus. */
final class SparkCounter(spark: SparkSession) extends SparkListener {
  val jobs   = new AtomicLong
  val stages = new AtomicLong
  val tasks  = new AtomicLong
  spark.sparkContext.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = { stages.incrementAndGet(); () }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = { tasks.incrementAndGet(); () }

  /** (jobs, stages, tasks) since the last call, once all events are in. */
  def take(): (Long, Long, Long) = {
    ListenerDrain(spark.sparkContext)
    (jobs.getAndSet(0), stages.getAndSet(0), tasks.getAndSet(0))
  }
}
