package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window
import repro.h3.HexGrid

/** The paper's §3.2 aggregation dataflow, expressed as Spark DataFrame
  * transformations (the paper uses a DuckDB CTE; semantics identical and
  * oracle-checked against DuckDB in the tests).
  *
  * From segmented trips, two aggregates are derived at an H3 resolution:
  *  - per-cell statistics (node attributes), and
  *  - per-(lag_cl, cl) transition statistics (edge list).
  *
  * `exact = true` uses exact distinct counts (deterministic — used by the
  * DuckDB oracle tests); `false` uses approx_count_distinct as the paper.
  */
object CellStats {

  /** Assign each report its cell `cl` and predecessor cell `lag_cl` along
    * the trip sequence. The window is keyed by (vessel_id, trip_id), the
    * same groups as trip_id alone since trip_id determines vessel_id, so
    * trips hash-partitioned by vessel_id (as [[repro.exp.Prep.prepare]]
    * caches them) are not shuffled again.
    */
  def withCells(trips: DataFrame, res: Int): DataFrame = {
    val w = Window.partitionBy("vessel_id", "trip_id").orderBy("t")
    trips
      .withColumn("cl", HexGrid.cellOf(F.col("lat"), F.col("lon"), F.lit(res)))
      .withColumn("lag_cl", F.lag("cl", 1).over(w))
  }

  /** Per-cell node statistics: record count, distinct vessels, and median
    * lon/lat (the data-driven `w` projection of §3.3).
    */
  def cellTable(trips: DataFrame, res: Int, exact: Boolean = false): DataFrame = {
    val vessels =
      if (exact) F.countDistinct("vessel_id") else F.approx_count_distinct("vessel_id")
    withCells(trips, res).groupBy("cl").agg(
      F.count(F.lit(1)).as("cnt"),
      vessels.as("vessels"),
      F.expr("percentile(lon, 0.5)").as("med_lon"),
      F.expr("percentile(lat, 0.5)").as("med_lat"))
  }

  /** Per-(lag_cl, cl) edge statistics: distinct-trip transition counts.
    * Self-transitions excluded. The hex distance of a transition follows
    * from its two cells; the graph derives it ([[GraphEdge.dist]]).
    */
  def edgeTable(trips: DataFrame, res: Int, exact: Boolean = false): DataFrame = {
    val transitions =
      if (exact) F.countDistinct("trip_id") else F.approx_count_distinct("trip_id")
    withCells(trips, res)
      .filter(F.col("lag_cl").isNotNull && F.col("lag_cl") =!= F.col("cl"))
      .groupBy("lag_cl", "cl").agg(transitions.as("transitions"))
  }
}
