package repro.eval

import org.apache.spark.sql.DataFrame
import java.util.stream.IntStream
import repro.geo.LatLng
import scala.collection.immutable.ArraySeq
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
  * values, each side sorted once. `dtwCells` and `planarCells` are the
  * work counters of the scoring, summed over all the gaps: the
  * accumulated-cost cells of DTW's exact pass ([[DTW.lastCells]]) and of
  * its planar pass ([[DTW.lastPlanarCells]]).
  */
final case class EvalResult(dtws: IndexedSeq[Double], latenciesSec: IndexedSeq[Double],
                            dtwCells: Long = 0L, planarCells: Long = 0L) {
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
    * ground truth and per-query wall-clock latency: [[impute]], then
    * [[scored]].
    */
  def evaluate(method: (LatLng, LatLng) => Seq[LatLng], gaps: Seq[Gap]): EvalResult = {
    val (paths, latencies) = impute(method, gaps)
    scored(paths, latencies, gaps)
  }

  /** Impute every gap serially, timing each call: the paths and the
    * seconds each took, in gap order.
    */
  def impute(method: (LatLng, LatLng) => Seq[LatLng],
             gaps: Seq[Gap]): (IndexedSeq[Seq[LatLng]], IndexedSeq[Double]) = {
    val paths = IndexedSeq.newBuilder[Seq[LatLng]]
    val lats  = IndexedSeq.newBuilder[Double]
    for (g <- gaps) {
      val start = System.nanoTime()
      paths += method(g.from, g.to)
      lats += (System.nanoTime() - start) / 1e9
    }
    (paths.result(), lats.result())
  }

  /** The result of `paths`, imputed in `latencies`: the normalized DTW of
    * each path against its gap's ground truth, in gap order, and the DTW
    * cells computed for them all. The gaps are scored in parallel on the
    * common fork-join pool, sized to the available cores: each score is
    * independent and DTW keeps only per-thread state, so the scores equal
    * a serial pass's.
    */
  def scored(paths: IndexedSeq[Seq[LatLng]], latencies: IndexedSeq[Double], gaps: Seq[Gap]): EvalResult = {
    val truths = gaps.map(_.truth).toIndexedSeq
    require(paths.size == truths.size, s"${paths.size} paths for ${truths.size} gaps")
    val dtws = new Array[Double](truths.size)
    val cells = new Array[Long](truths.size); val planar = new Array[Long](truths.size)
    IntStream.range(0, truths.size).parallel().forEach { i =>
      dtws(i) = DTW.pathErrorM(paths(i), truths(i)); cells(i) = DTW.lastCells; planar(i) = DTW.lastPlanarCells
    }
    EvalResult(ArraySeq.unsafeWrapArray(dtws), latencies, cells.sum, planar.sum)
  }

  /** The scores of [[scored]] and its exact-pass cells. */
  def score(paths: IndexedSeq[Seq[LatLng]], gaps: Seq[Gap]): (IndexedSeq[Double], Long) = {
    val r = scored(paths, IndexedSeq.empty, gaps)
    (r.dtws, r.dtwCells)
  }

  /** Training trips as bare point sequences (GTI's build input). */
  def trainPaths(trips: Map[Long, IndexedSeq[TimedPoint]], trainIds: Set[Long]): Seq[IndexedSeq[LatLng]] =
    trainIds.toSeq.sorted.map(id => trips(id).map(_.p))
}
