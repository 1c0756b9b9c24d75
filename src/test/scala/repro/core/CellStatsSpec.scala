package repro.core

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.h3.HexGrid
import repro.preprocess.{Cleaner, TripSegmenter}

class CellStatsSpec extends AnyFunSuite with SparkSpec {

  private lazy val trips = {
    val raw = repro.ais.Datasets.kiel(spark, nTrips = 4)
    TripSegmenter.segment(Cleaner.clean(raw)).cache()
  }
  private lazy val g8 = MotionGraph.build(trips, 8, exact = true)

  test("withCells assigns cl and per-trip lag_cl") {
    val df = CellStats.withCells(trips, 8)
    assert(df.columns.contains("cl") && df.columns.contains("lag_cl"))
    // Exactly one null lag per trip (the first report).
    val nulls = df.filter(col("lag_cl").isNull).count()
    assert(nulls == df.select("trip_id").distinct().count())
  }

  test("withCells lag matches the Scala-side cell of the previous point") {
    val rows = CellStats.withCells(trips, 8)
      .select("trip_id", "t", "cl", "lag_cl").orderBy("trip_id", "t").collect()
    rows.sliding(2).foreach {
      case Array(a, b) if a.getLong(0) == b.getLong(0) =>
        assert(b.getLong(3) == a.getLong(2))
      case _ =>
    }
  }

  test("cellTable: counts sum to the number of reports") {
    val ct = CellStats.cellTable(trips, 8, exact = true)
    assert(ct.agg(sum("cnt")).collect()(0).getLong(0) == trips.count())
  }

  test("cellTable: medians lie inside the cell's value range") {
    val df = CellStats.withCells(trips, 8)
    val ranges = df.groupBy("cl").agg(
      min("lat").as("lo"), max("lat").as("hi")).collect()
      .map(r => r.getLong(0) -> (r.getDouble(1), r.getDouble(2))).toMap
    CellStats.cellTable(trips, 8, exact = true).collect().foreach { r =>
      val (lo, hi) = ranges(r.getAs[Long]("cl"))
      val med = r.getAs[Double]("med_lat")
      assert(med >= lo - 1e-9 && med <= hi + 1e-9)
    }
  }

  test("cellTable: distinct vessel counts never exceed the fleet size") {
    val fleet = trips.select("vessel_id").distinct().count()
    assert(CellStats.cellTable(trips, 8, exact = true).agg(max("vessels"))
      .collect()(0).getLong(0) <= fleet)
  }

  test("edgeTable: no self-transitions and no null origins") {
    val et = CellStats.edgeTable(trips, 8, exact = true)
    assert(et.filter(col("lag_cl") === col("cl")).count() == 0)
    assert(et.filter(col("lag_cl").isNull).count() == 0)
  }

  test("edgeTable: transition counts bounded by the trip count") {
    val nTrips = trips.select("trip_id").distinct().count()
    assert(CellStats.edgeTable(trips, 8, exact = true).agg(max("transitions"))
      .collect()(0).getLong(0) <= nTrips)
  }

  test("graph: every edge's dist is the hex distance of its two cells") {
    val ref = ReferenceCellStats.edgeTable(trips, 8, exact = true).collect()
      .map(r => (r.getAs[Long]("lag_cl"), r.getAs[Long]("cl")) -> r.getAs[Int]("dist")).toMap
    assert(g8.edgeCount > 0 && g8.edgeCount == ref.size)
    for (i <- g8.ids.indices; k <- g8.off(i) until g8.off(i + 1)) {
      val (a, b) = (g8.ids(i), g8.ids(g8.tgt(k)))
      assert(g8.dist(k) == HexGrid.gridDistance(a, b))
      assert(g8.dist(k) == ref((a, b)))
    }
  }

  test("graph: consecutive samples at cruise speed span few cells at res 8") {
    // The median as `percentile(dist, 0.5)` takes it.
    val s = g8.dist.sorted
    val d = (s((s.length - 1) / 2) + s(s.length / 2)) / 2.0
    assert(d >= 1.0 && d <= 3.0, s"median transition distance $d cells")
  }

  test("higher resolution yields more cells") {
    val c8 = CellStats.cellTable(trips, 8, exact = true).count()
    val c9 = CellStats.cellTable(trips, 9, exact = true).count()
    assert(c9 > c8)
  }

  test("oracle: per-cell count/vessels/medians agree with DuckDB") {
    val input = CellStats.withCells(trips, 8)
      .select("cl", "vessel_id", "lon", "lat")
    val got = CellStats.cellTable(trips, 8, exact = true).select(
      col("cl"), col("cnt"), col("vessels"),
      round(col("med_lon"), 3).as("med_lon"), round(col("med_lat"), 3).as("med_lat"))
    repro.Oracle.assertEquivalent(
      got,
      """SELECT CAST(cl AS BIGINT) AS cl, COUNT(*) AS cnt,
        |       COUNT(DISTINCT vessel_id) AS vessels,
        |       ROUND(MEDIAN(CAST(lon AS DOUBLE)), 3) AS med_lon,
        |       ROUND(MEDIAN(CAST(lat AS DOUBLE)), 3) AS med_lat
        |FROM pts GROUP BY cl""".stripMargin,
      "pts" -> input)
  }

  test("oracle: transition aggregation agrees with DuckDB's window/group") {
    val input = CellStats.withCells(trips, 8).select("trip_id", "t", "cl")
    val got = CellStats.edgeTable(trips, 8, exact = true)
      .select("lag_cl", "cl", "transitions")
    repro.Oracle.assertEquivalent(
      got,
      """SELECT CAST(lag_cl AS BIGINT) AS lag_cl, CAST(cl AS BIGINT) AS cl,
        |       COUNT(DISTINCT trip_id) AS transitions
        |FROM (
        |  SELECT trip_id, cl,
        |         LAG(cl) OVER (PARTITION BY trip_id ORDER BY CAST(t AS BIGINT)) AS lag_cl
        |  FROM pts
        |)
        |WHERE lag_cl IS NOT NULL AND lag_cl <> cl
        |GROUP BY lag_cl, cl""".stripMargin,
      "pts" -> input)
  }
}
