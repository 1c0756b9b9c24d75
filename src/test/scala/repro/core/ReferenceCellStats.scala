package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window
import repro.h3.HexGrid

/** [[CellStats]] as it was before the build shared one vessel_id
  * partitioning, kept as the reference for the differential tests: the
  * cell lag is taken over a window partitioned by trip_id alone, and the
  * edge table carries each transition's hex distance as a `dist` column,
  * which the graph now derives from the two cells.
  */
object ReferenceCellStats {

  private val hexDistance = F.udf((a: Long, b: Long) => HexGrid.gridDistance(a, b))

  def withCells(trips: DataFrame, res: Int): DataFrame = {
    val w = Window.partitionBy("trip_id").orderBy("t")
    trips
      .withColumn("cl", HexGrid.cellOf(F.col("lat"), F.col("lon"), F.lit(res)))
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
      .withColumn("dist", hexDistance(F.col("lag_cl"), F.col("cl")))
  }
}
