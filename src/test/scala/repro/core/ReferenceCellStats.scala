package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

/** [[CellStats]] as it was before the build shared one vessel_id
  * partitioning, kept as the reference for the differential tests: the
  * cell lag is taken over a window partitioned by trip_id alone.
  */
object ReferenceCellStats {

  def withCells(trips: DataFrame, res: Int): DataFrame = {
    val w = Window.partitionBy("trip_id").orderBy("t")
    trips
      .withColumn("cl", F.call_udf("h3_cell", F.col("lat"), F.col("lon"), F.lit(res)))
      .withColumn("lag_cl", F.lag("cl", 1).over(w))
  }

  def cellTable(trips: DataFrame, res: Int, exact: Boolean = false): DataFrame = {
    val vessels =
      if (exact) F.countDistinct("vessel_id") else F.approx_count_distinct("vessel_id")
    withCells(trips, res).groupBy("cl").agg(
      F.count(F.lit(1)).as("cnt"),
      vessels.as("vessels"),
      F.expr("percentile(lon, 0.5)").as("med_lon"),
      F.expr("percentile(lat, 0.5)").as("med_lat"))
  }

  def edgeTable(trips: DataFrame, res: Int, exact: Boolean = false): DataFrame = {
    val transitions =
      if (exact) F.countDistinct("trip_id") else F.approx_count_distinct("trip_id")
    withCells(trips, res)
      .filter(F.col("lag_cl").isNotNull && F.col("lag_cl") =!= F.col("cl"))
      .groupBy("lag_cl", "cl").agg(transitions.as("transitions"))
      .withColumn("dist", F.call_udf("h3_dist", F.col("lag_cl"), F.col("cl")))
  }
}
