package repro.preprocess

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window
import repro.h3.HexGrid

/** [[TripSegmenter.segment]] as it was before the build shared one
  * vessel_id partitioning, kept as the reference for the differential
  * tests: the tiny-trip exclusion is a `groupBy(trip_id)` joined back to
  * the trip rows.
  */
object ReferenceTripSegmenter {

  def segment(cleaned: DataFrame, params: TripSegmenter.Params = TripSegmenter.Params()): DataFrame = {
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

    val withCell = withTrip.withColumn("_rcl",
      HexGrid.cellOf(F.col("lat"), F.col("lon"), F.lit(params.refRes)))
    val keep = withCell.groupBy("trip_id").agg(
      F.countDistinct("_rcl").as("_ncells"), F.count(F.lit(1)).as("_npts"))
      .filter(F.col("_ncells") > 2 && F.col("_npts") >= params.minPoints)
      .select("trip_id")
    withCell.join(keep, Seq("trip_id")).drop("_rcl")
  }
}
