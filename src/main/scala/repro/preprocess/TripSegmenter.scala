package repro.preprocess

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window
import repro.h3.HexGrid

/** Trip segmentation (paper §3.1): a trip is the subsequence of a vessel's
  * AIS reports between two successive stops or communication gaps.
  *
  *  - Stop: sog < `stopSpeedKn` (0.5 kn) — stopped reports delimit trips
  *    and are excluded from them.
  *  - Communication gap: Δt to the previous report > `gapSec` (ΔT = 30 min)
  *    cuts the current trip; shorter dropouts stay inside the trip.
  *
  * Trips confined to at most two adjacent cells at a reference resolution
  * ("sea drift") are excluded, as are degenerate few-point trips.
  */
object TripSegmenter {

  final case class Params(stopSpeedKn: Double = 0.5, gapSec: Long = 1800,
                          refRes: Int = 8, minPoints: Int = 10)

  /** Segment cleaned AIS into trips: adds a `trip_id` column (first) and
    * keeps only in-trip (moving) reports. Every window is keyed by
    * vessel_id, so input hash-partitioned by vessel_id (as
    * [[Cleaner.clean]] returns it) is not shuffled again.
    */
  def segment(cleaned: DataFrame, params: Params = Params()): DataFrame = {
    val w = Window.partitionBy("vessel_id").orderBy("t")
    val flagged = cleaned
      .withColumn("_stopped", F.col("sog") < params.stopSpeedKn)
      .withColumn("_dt", F.col("t") - F.lag("t", 1).over(w))
      .withColumn("_prevStopped", F.lag("_stopped", 1).over(w))
      .withColumn("_boundary",
        (F.col("_dt").isNull || F.col("_dt") > params.gapSec ||
          (F.col("_prevStopped") && !F.col("_stopped"))).cast("int"))
    val withTrip = flagged
      .withColumn("_seq", F.sum("_boundary").over(
        w.rowsBetween(Window.unboundedPreceding, Window.currentRow)))
      .withColumn("trip_id", F.col("vessel_id") * 1000000L + F.col("_seq"))
      .filter(!F.col("_stopped"))
      .drop("_stopped", "_dt", "_prevStopped", "_boundary", "_seq")

    // Tiny-trip exclusion: local displacements within <= 2 adjacent cells
    // at the reference resolution carry no routing information. A window
    // over (vessel_id, trip_id) reuses the input's vessel_id partitioning
    // (trip_id determines vessel_id), where a group-by and join would
    // shuffle twice.
    val wt = Window.partitionBy("vessel_id", "trip_id")
    val rcl = HexGrid.cellOf(F.col("lat"), F.col("lon"), F.lit(params.refRes))
    withTrip
      .withColumn("_ncells", F.size(F.collect_set(rcl).over(wt)))
      .withColumn("_npts", F.count(F.lit(1)).over(wt))
      .filter(F.col("_ncells") > 2 && F.col("_npts") >= params.minPoints)
      .select("trip_id", cleaned.columns.toIndexedSeq: _*)
  }
}
