package repro.preprocess

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

class CleanerSpec extends AnyFunSuite with SparkSpec {
  import repro.ais.AisRecord

  private def df(rows: Seq[AisRecord]) = {
    import spark.implicits._
    spark.createDataset(rows).toDF()
  }

  private def rec(t: Long, lat: Double, lon: Double, sog: Double = 10.0,
                  cog: Double = 90.0, v: Long = 1L): AisRecord =
    AisRecord(v, "passenger", t, lat, lon, sog, cog)

  test("valid rows pass through unchanged") {
    val rows = Seq(rec(0, 55.0, 12.0), rec(60, 55.005, 12.0), rec(120, 55.01, 12.0))
    assert(Cleaner.clean(df(rows)).count() == 3)
  }

  test("invalid latitude is dropped") {
    val rows = Seq(rec(0, 55.0, 12.0), rec(60, 95.0, 200.0), rec(120, 55.005, 12.0))
    val out  = Cleaner.clean(df(rows)).collect()
    assert(out.length == 2 && out.forall(_.getAs[Double]("lat") <= 90.0))
  }

  test("invalid longitude is dropped") {
    assert(Cleaner.clean(df(Seq(rec(0, 55.0, 181.0)))).count() == 0)
  }

  test("negative and absurd sog are dropped") {
    assert(Cleaner.clean(df(Seq(rec(0, 55, 12, sog = -1.0)))).count() == 0)
    assert(Cleaner.clean(df(Seq(rec(0, 55, 12, sog = 120.0)))).count() == 0)
  }

  test("cog outside [0,360] is dropped") {
    assert(Cleaner.clean(df(Seq(rec(0, 55, 12, cog = 400.0)))).count() == 0)
  }

  test("exact duplicates collapse to one report") {
    val rows = Seq(rec(0, 55.0, 12.0), rec(0, 55.0, 12.0), rec(60, 55.005, 12.0))
    assert(Cleaner.clean(df(rows)).count() == 2)
  }

  test("same-timestamp conflicting positions keep exactly one") {
    val rows = Seq(rec(0, 55.0, 12.0), rec(0, 55.001, 12.001), rec(60, 55.005, 12.0))
    assert(Cleaner.clean(df(rows)).count() == 2)
  }

  // Reports that share vessel, t and position but not speed and course, as
  // SynthAIS injects them.
  private val slow = rec(0, 55.0, 12.0, sog = 2.0, cog = 80.0)
  private val fast = rec(0, 55.0, 12.0, sog = 9.0, cog = 95.0)

  test("same vessel, t and position: one survivor, whatever the row order") {
    val conf = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(conf)
    try {
      for (partitions <- Seq(1, 8); pair <- Seq(Seq(slow, fast), Seq(fast, slow))) {
        spark.conf.set(conf, partitions.toLong)
        val got = Cleaner.clean(df(pair :+ rec(60, 55.005, 12.0))).filter("t = 0").collect()
        assert(got.map(r => (r.getAs[Double]("sog"), r.getAs[Double]("cog"))).toSeq == Seq((2.0, 80.0)),
          s"$partitions partitions, rows $pair")
      }
    } finally spark.conf.set(conf, before)
  }

  test("teleporting report (impossible implied speed) is dropped") {
    // 0.5 degrees (~55 km) in 60 s is ~1800 knots.
    val rows = Seq(rec(0, 55.0, 12.0), rec(60, 55.5, 12.0), rec(120, 55.01, 12.0))
    val out  = Cleaner.clean(df(rows)).collect().map(_.getAs[Double]("lat"))
    assert(!out.contains(55.5))
  }

  test("slow drift is not mistaken for a teleport") {
    val rows = (0 to 20).map(i => rec(i * 60L, 55.0 + i * 0.005, 12.0))
    assert(Cleaner.clean(df(rows)).count() == 21)
  }

  test("per-vessel independence: one vessel's noise does not affect another") {
    val rows = Seq(rec(0, 55.0, 12.0, v = 1), rec(60, 55.005, 12.0, v = 1),
                   rec(0, 95.0, 12.0, v = 2), rec(60, 37.9, 23.6, v = 2))
    val out = Cleaner.clean(df(rows))
    assert(out.filter("vessel_id = 1").count() == 2)
    assert(out.filter("vessel_id = 2").count() == 1)
  }

  test("cleaning is idempotent") {
    val rows = Seq(rec(0, 55.0, 12.0), rec(0, 55.0, 12.0), rec(60, 95.0, 12.0),
                   rec(120, 55.01, 12.0))
    val once  = Cleaner.clean(df(rows))
    val twice = Cleaner.clean(once)
    assert(once.collect().toSet == twice.collect().toSet)
  }

  test("the edge cases above: the same rows as the reference cleaner") {
    val cases = Seq(
      Seq(rec(0, 55.0, 12.0), rec(60, 95.0, 200.0), rec(120, 55.005, 12.0)),
      Seq(rec(0, 55.0, 181.0)),
      Seq(rec(0, 55, 12, sog = -1.0), rec(0, 55, 12, sog = 120.0), rec(0, 55, 12, cog = 400.0)),
      Seq(rec(0, 55.0, 12.0), rec(0, 55.0, 12.0), rec(60, 55.005, 12.0)),
      Seq(rec(0, 55.0, 12.0), rec(0, 55.001, 12.001), rec(60, 55.005, 12.0)),
      Seq(rec(0, 55.0, 12.0), rec(60, 55.5, 12.0), rec(120, 55.01, 12.0)),
      (0 to 20).map(i => rec(i * 60L, 55.0 + i * 0.005, 12.0)),
      Seq(rec(0, 55.0, 12.0, v = 1), rec(60, 55.005, 12.0, v = 1),
          rec(0, 95.0, 12.0, v = 2), rec(60, 37.9, 23.6, v = 2)),
      Seq(rec(120, 55.01, 12.0), rec(0, 55.0, 12.0), rec(60, 55.005, 12.0, v = 3), rec(0, 55.0, 12.0)),
      Seq(slow, fast, rec(60, 55.005, 12.0)),
      Seq(fast, slow, rec(60, 55.005, 12.0)))
    for (rows <- cases) {
      val got = Cleaner.clean(df(rows)).collect()
      assert(got.length == got.toSet.size)
      assert(got.toSet == ReferenceCleaner.clean(df(rows)).collect().toSet, rows)
    }
  }

  test("oracle: dedup + validity filter agrees with DuckDB") {
    import org.apache.spark.sql.functions._
    val rows = Seq(rec(0, 55.0, 12.0), rec(0, 55.0, 12.0), rec(60, 95.0, 200.0),
                   rec(120, 55.01, 12.0), rec(180, 55.02, 12.0, v = 2))
    val cleaned = Cleaner.clean(df(rows))
      .groupBy("vessel_id").agg(count(lit(1)).as("n"))
    repro.Oracle.assertEquivalent(
      cleaned,
      """SELECT CAST(vessel_id AS BIGINT) AS vessel_id, COUNT(*) AS n FROM (
        |  SELECT DISTINCT vessel_id, t, lat, lon FROM ais
        |  WHERE CAST(lat AS DOUBLE) BETWEEN -90 AND 90
        |    AND CAST(lon AS DOUBLE) BETWEEN -180 AND 180
        |) GROUP BY vessel_id""".stripMargin,
      "ais" -> df(rows))
  }
}
