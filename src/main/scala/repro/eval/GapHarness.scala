package repro.eval

import org.apache.spark.sql.DataFrame
import repro.geo.LatLng
import scala.util.Random

/** A timestamped position inside a trip. */
final case class TimedPoint(t: Long, p: LatLng)

/** One synthetic evaluation gap (paper §4.1): the reports inside a
  * fixed-duration window are withheld; `from`/`to` are the surviving
  * endpoints handed to the imputers and `truth` is the withheld original
  * sub-trajectory (including both endpoints) serving as ground truth.
  */
final case class Gap(tripId: Long, from: LatLng, to: LatLng, truth: IndexedSeq[LatLng])

/** Accuracy/latency summary over a set of gaps for one method.
  * Percentiles are nearest-rank: element min(n - 1, ⌊q·n⌋) of the sorted
  * values, each side sorted once.
  */
final case class EvalResult(dtws: IndexedSeq[Double], latenciesSec: IndexedSeq[Double]) {
  private lazy val sortedDtws      = dtws.sorted
  private lazy val sortedLatencies = latenciesSec.sorted
  private def percentile(sorted: IndexedSeq[Double], q: Double): Double =
    if (sorted.isEmpty) 0.0 else sorted(math.min(sorted.size - 1, (q * sorted.size).toInt))

  def meanDtw: Double   = if (dtws.isEmpty) 0.0 else dtws.sum / dtws.size
  def medianDtw: Double = percentileDtw(0.5)
  def percentileDtw(q: Double): Double = percentile(sortedDtws, q)
  def avgLatency: Double = if (latenciesSec.isEmpty) 0.0 else latenciesSec.sum / latenciesSec.size
  def maxLatency: Double = if (latenciesSec.isEmpty) 0.0 else latenciesSec.max
  def percentileLatency(q: Double): Double = percentile(sortedLatencies, q)
  def p50Latency: Double = percentileLatency(0.5)
  def p99Latency: Double = percentileLatency(0.99)
  def nGaps: Int = dtws.size
}

/** The paper's evaluation protocol: 70% of trips build the frameworks,
  * a single random fixed-duration gap is cut into each of the remaining
  * 30%, and every method imputes the same gaps.
  */
object GapHarness {

  /** Collect segmented trips (trip_id, t, lat, lon) to the driver as
    * ordered point sequences. Trips are small aggregates by the time this
    * runs — same driver-side split as the paper's DuckDB/NetworkX design.
    */
  def collectTrips(trips: DataFrame): Map[Long, IndexedSeq[TimedPoint]] =
    trips.select("trip_id", "t", "lat", "lon").collect()
      .groupBy(_.getLong(0))
      .view.mapValues(rows =>
        rows.map(r => TimedPoint(r.getLong(1), LatLng(r.getDouble(2), r.getDouble(3))))
          .sortBy(_.t).toIndexedSeq)
      .toMap

  /** Deterministic 70/30 split of trip ids into (train, test). */
  def split(tripIds: Seq[Long], trainFrac: Double = 0.7, seed: Long = 42): (Set[Long], Set[Long]) = {
    val shuffled = new Random(seed).shuffle(tripIds.sorted)
    val nTrain   = (shuffled.size * trainFrac).round.toInt
    (shuffled.take(nTrain).toSet, shuffled.drop(nTrain).toSet)
  }

  /** Cut one random gap of `gapSec` out of a trip; None if the trip is too
    * short to host the gap with a safety margin on both sides.
    */
  def makeGap(tripId: Long, pts: IndexedSeq[TimedPoint], gapSec: Long,
              rnd: Random, marginSec: Long = 300): Option[Gap] = {
    if (pts.size < 4) return None
    val t0 = pts.head.t; val t1 = pts.last.t
    if (t1 - t0 < gapSec + 2 * marginSec) return None
    val gs  = t0 + marginSec + (rnd.nextDouble() * (t1 - t0 - gapSec - 2 * marginSec)).toLong
    val ge  = gs + gapSec
    val before = pts.filter(_.t <= gs)
    val inside = pts.filter(p => p.t > gs && p.t < ge)
    val after  = pts.filter(_.t >= ge)
    if (before.isEmpty || inside.size < 2 || after.isEmpty) None
    else Some(Gap(tripId, before.last.p, after.head.p,
      (before.last +: inside :+ after.head).map(_.p)))
  }

  /** One gap per eligible test trip, deterministic in `seed`. */
  def gapsFor(trips: Map[Long, IndexedSeq[TimedPoint]], testIds: Set[Long],
              gapSec: Long, seed: Long = 7): IndexedSeq[Gap] = {
    val rnd = new Random(seed)
    testIds.toIndexedSeq.sorted.flatMap(id => makeGap(id, trips(id), gapSec, rnd))
  }

  /** Run `method` over every gap, recording normalized DTW against the
    * ground truth and per-query wall-clock latency.
    */
  def evaluate(method: (LatLng, LatLng) => Seq[LatLng], gaps: Seq[Gap]): EvalResult = {
    val dtws = IndexedSeq.newBuilder[Double]
    val lats = IndexedSeq.newBuilder[Double]
    for (g <- gaps) {
      val start   = System.nanoTime()
      val imputed = method(g.from, g.to)
      lats += (System.nanoTime() - start) / 1e9
      dtws += DTW.pathErrorM(imputed, g.truth)
    }
    EvalResult(dtws.result(), lats.result())
  }

  /** Training trips as bare point sequences (GTI's build input). */
  def trainPaths(trips: Map[Long, IndexedSeq[TimedPoint]], trainIds: Set[Long]): Seq[IndexedSeq[LatLng]] =
    trainIds.toSeq.sorted.map(id => trips(id).map(_.p))
}
