package org.apache.spark

/** Waits until every Spark event posted so far has reached the listeners,
  * so per-iteration job, stage and task counts are complete when read.
  * It sits in Spark's package because the listener bus is package-private.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
