package perfbench

import java.security.MessageDigest
import repro.core.MotionGraph
import repro.geo.LatLng
import scala.collection.mutable

/** What one run reports: metrics by name with their unit, the operation
  * counts, and every failed correctness check. Checks print loudly to
  * stderr as they fail; the run's verdict is `correct`.
  */
final class Report {
  private val values   = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val problems = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed    = 0L

  def metric(name: String, value: Double, unit: String): Unit = {
    if (value.isNaN || value.isInfinite) problem(s"metric $name is not a finite number: $value")
    values(name) = (value, unit)
  }

  /** Keep exactly the metrics of `spec`, in its order. A missing metric is
    * reported as 0 when `zeroIfMissing` (a layer the workload never calls),
    * and is a failed check otherwise.
    */
  def select(spec: Seq[(String, String)], zeroIfMissing: Boolean): Unit = {
    val kept = spec.map { case (n, u) =>
      n -> values.getOrElse(n, {
        if (!zeroIfMissing) problem(s"metric $n was not measured")
        (0.0, u)
      })
    }
    values.clear()
    values ++= kept
  }

  def problem(msg: String): Unit = {
    problems += msg
    Console.err.println(s"CHECK FAILED: $msg")
  }

  def check(ok: Boolean, msg: => String): Unit = if (!ok) problem(msg)

  def correct: Boolean = problems.isEmpty

  /** The result line: `correct`, `attempted`, `failed` and the metrics. */
  def json: String = {
    val ms = values.map { case (n, (v, u)) =>
      val num = if (v.isNaN || v.isInfinite) "null" else v.toString
      s""""$n": {"value": $num, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Stats {
  /** Nearest-rank percentile, q in (0, 1]. */
  def pct(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0 else {
      val s = xs.sorted
      s(math.max(0, math.ceil(q * s.size).toInt - 1))
    }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0 else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** SHA-256 digests, printed as 16 hex digits, that pin the program's
  * outputs: two runs of one seed must print the same digests.
  */
final class Digest {
  private val md  = MessageDigest.getInstance("SHA-256")
  private val buf = java.nio.ByteBuffer.allocate(8)
  def long(x: Long): Unit = { buf.clear(); buf.putLong(x); md.update(buf.array()) }
  def double(x: Double): Unit = long(java.lang.Double.doubleToLongBits(x))
  def hex: String = md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
}

object Digest {
  /** Node ids with their medians, and edges with transitions and distance. */
  def graph(g: MotionGraph): String = {
    val d = new Digest
    d.long(g.res)
    for (n <- g.nodes.values.toSeq.sortBy(_.cell)) { d.long(n.cell); d.double(n.medLat); d.double(n.medLon) }
    for (e <- g.adjacency.values.flatten.toSeq.sortBy(e => (e.from, e.to))) {
      d.long(e.from); d.long(e.to); d.long(e.transitions); d.long(e.dist)
    }
    d.hex
  }

  def paths(ps: Seq[IndexedSeq[LatLng]]): String = {
    val d = new Digest
    for (p <- ps) {
      d.long(if (p == null) -1 else p.size)
      if (p != null) p.foreach { q => d.double(q.lat); d.double(q.lon) }
    }
    d.hex
  }
}
