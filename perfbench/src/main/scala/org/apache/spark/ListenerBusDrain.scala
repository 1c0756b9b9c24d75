package org.apache.spark

/** Waits until every queued listener event has been delivered. The bus is
  * asynchronous and its drain method is package-private, so the benchmark
  * reaches it from inside the package, as Spark's own test suites do.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
