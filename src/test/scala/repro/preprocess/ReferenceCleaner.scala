package repro.preprocess

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

/** [[Cleaner.clean]] as it was before the build shared one vessel_id
  * partitioning, kept as the reference for the differential tests: the
  * (vessel_id, t) dedup window and the per-vessel implied-speed window
  * each shuffle on their own keys. The dedup keeps the report that is least
  * by every other column, as [[Cleaner.clean]] does: that tie rule is part
  * of the specification, not of the partitioning under test.
  */
object ReferenceCleaner {

  def clean(raw: DataFrame): DataFrame = {
    val valid = raw.filter(
      F.col("lat").between(-90.0, 90.0) &&
      F.col("lon").between(-180.0, 180.0) &&
      F.col("sog").between(0.0, 80.0) &&
      F.col("cog").between(0.0, 360.0))

    val dedup = valid
      .withColumn("rn", F.row_number().over(
        Window.partitionBy("vessel_id", "t").orderBy("lat", "lon", "sog", "cog", "ship_type")))
      .filter(F.col("rn") === 1).drop("rn")

    val w = Window.partitionBy("vessel_id").orderBy("t")
    val withImplied = dedup
      .withColumn("_plat", F.lag("lat", 1).over(w))
      .withColumn("_plon", F.lag("lon", 1).over(w))
      .withColumn("_pt",   F.lag("t", 1).over(w))
    val withSpeed = withImplied.withColumn("_impliedKn",
      F.when(F.col("_pt").isNull, F.lit(0.0)).otherwise(
        Cleaner.haversineExpr(F.col("_plat"), F.col("_plon"), F.col("lat"), F.col("lon")) /
          F.greatest(F.col("t") - F.col("_pt"), F.lit(1L)) / 0.514444))
    withSpeed
      .filter(F.col("_impliedKn") <= Cleaner.MaxImpliedKn)
      .drop("_plat", "_plon", "_pt", "_impliedKn")
  }
}
