package repro.ais

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geo.{Geo, LatLng}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** One raw AIS positional report (paper §2): vessel identity, receive
  * timestamp (epoch seconds), position, speed over ground (knots) and
  * course over ground (degrees).
  */
final case class AisRecord(vessel_id: Long, ship_type: String, t: Long,
                           lat: Double, lon: Double, sog: Double, cog: Double)

/** The deterministic recipe for one simulated trip. `wpts` is the lane
  * polyline as interleaved (lat, lon) pairs — kept flat so Spark's product
  * encoder handles it and trips can be simulated distributed via flatMap.
  */
final case class TripSpec(vesselId: Long, shipType: String, cruiseKn: Double,
                          sampleSec: Int, t0: Long, seed: Long, wpts: Array[Double],
                          dwellBeforeSec: Int, dwellAfterSec: Int, noisy: Boolean)

/** Synthetic AIS generator — the stand-in for the paper's real AIS feeds
  * (substitution documented in DESIGN.md). Trips follow curved lanes with
  * per-type kinematics, port speed ramps, smoothed cross-track noise,
  * sampling jitter, dropouts shorter than the 30-min gap threshold, and
  * (optionally) injected noise records exercising the cleaning stage:
  * duplicates, invalid coordinates, position teleports, delayed messages.
  */
object SynthAIS {

  /** Simulate one trip into its AIS reports. Deterministic in `spec`. */
  def simulate(spec: TripSpec): Seq[AisRecord] = {
    val rnd  = new Random(spec.seed)
    val path = Geo.densify(spec.wpts.grouped(2).map(a => LatLng(a(0), a(1))).toSeq, 100.0)
    val cum = new Array[Double](path.size)
    var i = 1
    while (i < path.size) { cum(i) = cum(i - 1) + Geo.haversineM(path(i - 1), path(i)); i += 1 }
    val total = cum.last
    val out   = ArrayBuffer.empty[AisRecord]

    def emit(t: Long, p: LatLng, sog: Double, cog: Double): Unit =
      out += AisRecord(spec.vesselId, spec.shipType, t, p.lat, p.lon,
        math.max(0.0, sog), (cog % 360.0 + 360.0) % 360.0)

    def dwell(center: LatLng, from: Long, durSec: Int): Long = {
      var t = from
      while (t < from + durSec) {
        val jit = Geo.destination(center, rnd.nextDouble() * 360.0, rnd.nextDouble() * 20.0)
        emit(t, jit, rnd.nextDouble() * 0.3, rnd.nextDouble() * 360.0)
        t += spec.sampleSec
      }
      t
    }

    // Moored at the origin port: gives the segmenter a stop to cut on.
    var t = dwell(path.head, spec.t0, spec.dwellBeforeSec)

    // Position along the lane at traveled distance s (meters from start).
    def at(s: Double): (LatLng, Double) = {
      val clamped = math.min(s, total - 1e-6)
      var lo = java.util.Arrays.binarySearch(cum, clamped)
      if (lo < 0) lo = -lo - 2
      val seg  = math.max(0, math.min(lo, path.size - 2))
      val span = math.max(1e-9, cum(seg + 1) - cum(seg))
      val f    = (clamped - cum(seg)) / span
      (Geo.interpolate(path(seg), path(seg + 1), f), Geo.bearingDeg(path(seg), path(seg + 1)))
    }

    // A single coverage dropout (5–25 min, below the 30-min trip cut).
    val longGap: Option[(Double, Double)] =
      if (rnd.nextDouble() < 0.25) {
        val c = total * (0.2 + rnd.nextDouble() * 0.6)
        val w = spec.cruiseKn * 0.514444 * (300 + rnd.nextDouble() * 1200)
        Some((c - w / 2, c + w / 2))
      } else None

    val rampM   = 3000.0
    var s       = 0.0
    var off     = 0.0 // smoothed cross-track offset, meters
    while (s < total) {
      val headroom = math.min(s, total - s)
      val ramp     = math.max(0.18, math.min(1.0, headroom / rampM))
      val speedKn  = math.max(2.0, spec.cruiseKn * ramp * (1.0 + rnd.nextGaussian() * 0.06))
      off = 0.9 * off + rnd.nextGaussian() * 35.0
      off = math.max(-300.0, math.min(300.0, off))
      val (base, brg) = at(s)
      val p           = Geo.destination(base, brg + 90.0, off)
      val drop = rnd.nextDouble() < 0.02 || longGap.exists { case (a, b) => s >= a && s <= b }
      if (!drop) {
        emit(t, p, speedKn + rnd.nextGaussian() * 0.2, brg + rnd.nextGaussian() * 2.0)
        if (spec.noisy) {
          val u = rnd.nextDouble()
          if (u < 0.004)      emit(t, p, speedKn, brg)                          // duplicate
          else if (u < 0.006) emit(t, LatLng(95.0, 200.0), 0.0, 0.0)           // invalid coords
          else if (u < 0.008) emit(t, Geo.destination(p, rnd.nextDouble() * 360.0, 5000.0),
                                   speedKn, brg)                                // teleport
          else if (u < 0.010) emit(t - 2L * spec.sampleSec, p, speedKn, brg)   // delayed msg
        }
      }
      val dt = math.max(5, (spec.sampleSec * (0.8 + rnd.nextDouble() * 0.4)).toInt)
      t += dt
      s += speedKn * 0.514444 * dt
    }

    // Moored at the destination port.
    dwell(path.last, t, spec.dwellAfterSec)
    out.toSeq
  }

  /** Materialize specs into a raw AIS DataFrame, simulating trips in
    * parallel across the cluster (one flatMap task per spec partition).
    */
  def generate(spark: SparkSession, specs: Seq[TripSpec]): DataFrame = {
    import spark.implicits._
    val parts = math.max(1, math.min(specs.size, spark.sparkContext.defaultParallelism))
    spark.createDataset(specs).repartition(parts).flatMap(simulate _).toDF()
  }
}
