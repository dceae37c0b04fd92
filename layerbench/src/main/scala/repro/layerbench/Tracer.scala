package repro.layerbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer

/** One recorded call into a layer. Times are `System.nanoTime` values;
  * `cpuNs` is the process CPU time spent while the span was open, all
  * threads included. `parent` indexes `Tracer.spans` (-1 for a root) and
  * `run` is the pipeline iteration the span belongs to.
  */
final case class Span(name: String, start: Long, end: Long, parent: Int, run: Int, cpuNs: Long) {
  def durNs: Long = end - start

  /** The layer a span belongs to: the part of its name before the first dot. */
  def layer: String = name.takeWhile(_ != '.')
}

/** In-memory span recorder. Spans are kept until the run ends and written
  * out then. A disabled tracer only evaluates the body, so untraced
  * iterations time the bare pipeline.
  */
final class Tracer(val enabled: Boolean) {
  val spans = new ArrayBuffer[Span]()
  private var open  = List.empty[Int]
  private var runId = -1
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** Record `f` as the root span "pipeline" of iteration `id`. */
  def run[A](id: Int)(f: => A): A = { runId = id; apply("pipeline")(f) }

  def apply[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val idx    = spans.length
      val parent = open.headOption.getOrElse(-1)
      spans += null
      open = idx :: open
      val c0 = os.getProcessCpuTime
      val t0 = System.nanoTime()
      try f
      finally {
        val t1 = System.nanoTime()
        spans(idx) = Span(name, t0, t1, parent, runId, os.getProcessCpuTime - c0)
        open = open.tail
      }
    }

  /** Self time of each span: its duration minus the time its direct
    * children cover (children of one span run one after another).
    */
  def selfNs: Array[Long] = {
    val self = spans.map(_.durNs).toArray
    for (s <- spans if s.parent >= 0) self(s.parent) -= s.durNs
    self
  }
}
