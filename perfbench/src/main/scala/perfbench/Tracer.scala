package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import scala.collection.mutable

/** In-memory span recorder for the traced run. A span wraps one call from
  * the benchmark into a public function of a layer; spans nest on the one
  * benchmark thread, so a span's children never overlap and its self time
  * is its duration minus the summed durations of its children.
  */
final class Tracer {
  private val names    = mutable.ArrayBuffer.empty[String]
  private val parents  = mutable.ArrayBuffer.empty[Int]
  private val requests = mutable.ArrayBuffer.empty[Long]
  private val starts   = mutable.ArrayBuffer.empty[Long]
  private val ends     = mutable.ArrayBuffer.empty[Long]
  private var open     = List.empty[Int]

  /** Hook run when a span opens or closes (the Spark probe uses it to tag
    * jobs with the innermost open span).
    */
  var onTop: Int => Unit = _ => ()

  def size: Int = names.size

  def span[T](name: String, request: Long = -1L)(body: => T): T = {
    val id = names.size
    names += name; parents += open.headOption.getOrElse(-1); requests += request
    starts += 0L; ends += 0L
    open = id :: open
    onTop(id)
    starts(id) = System.nanoTime()
    try body
    finally {
      ends(id) = System.nanoTime()
      open = open.tail
      onTop(open.headOption.getOrElse(-1))
    }
  }

  def name(id: Int): String = names(id)
  def durationNs(id: Int): Long = ends(id) - starts(id)

  /** Self time of every span: duration minus the time its children cover. */
  def selfNs: Array[Long] = {
    val self = Array.tabulate(names.size)(durationNs)
    for (id <- names.indices if parents(id) >= 0) self(parents(id)) -= durationNs(id)
    self
  }

  /** Summed self time (s) of the spans called `name`. */
  def selfSeconds(name: String): Double = {
    val self = selfNs
    names.indices.iterator.filter(names(_) == name).map(self(_)).sum / 1e9
  }

  /** Write every span as one tab-separated line:
    * id, parent, request, name, start ns, end ns, self ns.
    */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val self = selfNs
    val w = new PrintWriter(file)
    try {
      w.println("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")
      for (id <- names.indices)
        w.println(s"$id\t${parents(id)}\t${requests(id)}\t${names(id)}\t${starts(id)}\t${ends(id)}\t${self(id)}")
    } finally w.close()
  }
}

/** Counts Spark stages, tasks and shuffle bytes per build span. Jobs carry
  * the id of the span open when they were submitted (a local property), so
  * each completed stage is attributed to the span that caused it.
  */
final class SparkProbe(sc: SparkContext, tracer: Tracer) extends SparkListener {
  private val Key        = "perfbench.span"
  private val stageSpan  = mutable.Map.empty[Int, Int]
  private val stageCount = mutable.Map.empty[Int, Int].withDefaultValue(0)
  private val taskCount  = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val shuffleB   = mutable.Map.empty[Int, Long].withDefaultValue(0L)

  sc.addSparkListener(this)
  tracer.onTop = id => sc.setLocalProperty(Key, if (id < 0) null else id.toString)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Key))).foreach { s =>
      e.stageIds.foreach(stageSpan(_) = s.toInt)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).foreach { span =>
      stageCount(span) += 1
      taskCount(span) += e.stageInfo.numTasks
      shuffleB(span) += e.stageInfo.taskMetrics.shuffleWriteMetrics.bytesWritten
    }
  }

  /** (stages, tasks, shuffle MB) of one span; valid after `close`. */
  def totals(span: Int): (Int, Long, Double) =
    synchronized((stageCount(span), taskCount(span), shuffleB(span) / 1e6))

  /** Stops attributing jobs, once every pending event has arrived. */
  def close(): Unit = {
    ListenerBusDrain(sc)
    sc.removeSparkListener(this)
    tracer.onTop = _ => ()
    sc.setLocalProperty(Key, null)
  }
}
