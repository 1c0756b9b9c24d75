package repro.preprocess

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

/** AIS noise filtering (paper §3.1): the paper delegates cleaning to a
  * trajectory-annotation framework; we implement the filters it relies on
  * as a pure DataFrame transformation — invalid coordinates, impossible
  * speeds, exact duplicates, and delayed/teleporting messages whose
  * implied speed between consecutive reports is physically impossible.
  */
object Cleaner {

  /** Maximum credible vessel speed (knots) for the implied-speed filter. */
  val MaxImpliedKn = 60.0

  /** Clean a raw AIS DataFrame with columns
    * (vessel_id, ship_type, t, lat, lon, sog, cog).
    */
  def clean(raw: DataFrame): DataFrame = {
    val valid = raw.filter(
      F.col("lat").between(-90.0, 90.0) &&
      F.col("lon").between(-180.0, 180.0) &&
      F.col("sog").between(0.0, 80.0) &&
      F.col("cog").between(0.0, 360.0))
      // The build's one shuffle: every later window, here and in
      // TripSegmenter and CellStats, is keyed by vessel_id (and finer
      // keys), so this partitioning serves them all without an exchange.
      .repartition(F.col("vessel_id"))

    // Exact and same-timestamp duplicates: keep one report per (vessel, t),
    // the least by every other column, so the survivor does not depend on
    // the order in which the rows arrive.
    val dedup = valid
      .withColumn("rn", F.row_number().over(
        Window.partitionBy("vessel_id", "t").orderBy("lat", "lon", "sog", "cog", "ship_type")))
      .filter(F.col("rn") === 1).drop("rn")

    // Delayed or spoofed positions show up as impossible implied speeds
    // between consecutive reports of the same vessel.
    val w = Window.partitionBy("vessel_id").orderBy("t")
    val withImplied = dedup
      .withColumn("_plat", F.lag("lat", 1).over(w))
      .withColumn("_plon", F.lag("lon", 1).over(w))
      .withColumn("_pt",   F.lag("t", 1).over(w))
    val withSpeed = withImplied.withColumn("_impliedKn",
      F.when(F.col("_pt").isNull, F.lit(0.0)).otherwise(
        haversineExpr(F.col("_plat"), F.col("_plon"), F.col("lat"), F.col("lon")) /
          F.greatest(F.col("t") - F.col("_pt"), F.lit(1L)) / 0.514444))
    withSpeed
      .filter(F.col("_impliedKn") <= MaxImpliedKn)
      .drop("_plat", "_plon", "_pt", "_impliedKn")
  }

  /** Haversine distance in meters as a Column expression (spherical earth,
    * same constant as [[repro.geo.Geo]]).
    */
  def haversineExpr(lat1: org.apache.spark.sql.Column, lon1: org.apache.spark.sql.Column,
                    lat2: org.apache.spark.sql.Column, lon2: org.apache.spark.sql.Column)
      : org.apache.spark.sql.Column = {
    val r    = F.lit(repro.geo.Geo.EarthRadiusM)
    val dLat = F.radians(lat2 - lat1) / 2
    val dLon = F.radians(lon2 - lon1) / 2
    val a = F.pow(F.sin(dLat), 2) +
      F.cos(F.radians(lat1)) * F.cos(F.radians(lat2)) * F.pow(F.sin(dLon), 2)
    F.lit(2) * r * F.asin(F.least(F.lit(1.0), F.sqrt(a)))
  }
}
