package repro.preprocess

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.AisRecord
import repro.geo.{Geo, LatLng}

class TripSegmenterSpec extends AnyFunSuite with SparkSpec {

  private def df(rows: Seq[AisRecord]) = {
    import spark.implicits._
    spark.createDataset(rows).toDF()
  }

  /** A straight moving leg: `n` reports every `dt` s from `start`, sailing
    * east at ~14 kn (enough ground covered to span many res-8 cells).
    */
  private def leg(v: Long, t0: Long, n: Int, start: LatLng, dt: Long = 60): Seq[AisRecord] =
    (0 until n).map { i =>
      val p = Geo.destination(start, 90.0, i * dt * 7.2) // 7.2 m/s = 14 kn
      AisRecord(v, "cargo", t0 + i * dt, p.lat, p.lon, 14.0, 90.0)
    }

  private def moored(v: Long, t0: Long, n: Int, at: LatLng, dt: Long = 60): Seq[AisRecord] =
    (0 until n).map(i => AisRecord(v, "cargo", t0 + i * dt, at.lat, at.lon, 0.1, 0.0))

  private val p0 = LatLng(55.0, 11.0)
  private val params = TripSegmenter.Params(minPoints = 5)

  test("a single continuous voyage is one trip") {
    val out = TripSegmenter.segment(df(leg(1, 0, 60, p0)), params)
    assert(out.select("trip_id").distinct().count() == 1)
    assert(out.count() == 60)
  }

  test("a stop splits the voyage into two trips") {
    val sail1 = leg(1, 0, 60, p0)
    val stopAt = LatLng(sail1.last.lat, sail1.last.lon)
    val stop  = moored(1, 3600, 20, stopAt)
    val sail2 = leg(1, 3600 + 1200 + 60, 60, stopAt)
    val out = TripSegmenter.segment(df(sail1 ++ stop ++ sail2), params)
    assert(out.select("trip_id").distinct().count() == 2)
  }

  test("stopped reports are excluded from trips") {
    val sail = leg(1, 0, 60, p0)
    val stop = moored(1, 3600, 10, LatLng(sail.last.lat, sail.last.lon))
    val out  = TripSegmenter.segment(df(sail ++ stop), params)
    assert(out.filter("sog < 0.5").count() == 0)
  }

  test("a communication gap over 30 minutes splits the voyage") {
    val sail1 = leg(1, 0, 60, p0)
    val resume = Geo.destination(p0, 90.0, 100000.0)
    val sail2 = leg(1, 60 * 60 + 3600, 60, resume) // 61-min silence
    val out = TripSegmenter.segment(df(sail1 ++ sail2), params)
    assert(out.select("trip_id").distinct().count() == 2)
  }

  test("a dropout under 30 minutes does not split the voyage") {
    val sail1 = leg(1, 0, 30, p0)
    val after = Geo.destination(p0, 90.0, 30 * 60 * 7.2 + 20 * 60 * 7.2)
    val sail2 = leg(1, 30 * 60 + 20 * 60, 30, after) // 20-min dropout
    val out = TripSegmenter.segment(df(sail1 ++ sail2), params)
    assert(out.select("trip_id").distinct().count() == 1)
  }

  test("tiny drift trips (<= 2 cells) are excluded") {
    // 20 reports drifting 3 m/min — stays within a couple of res-8 cells.
    val drift = (0 until 20).map { i =>
      val p = Geo.destination(p0, 45.0, i * 3.0)
      AisRecord(1, "cargo", i * 60L, p.lat, p.lon, 1.0, 45.0)
    }
    assert(TripSegmenter.segment(df(drift), params).count() == 0)
  }

  test("trips with fewer than minPoints are excluded") {
    val short = leg(1, 0, 4, p0)
    assert(TripSegmenter.segment(df(short), TripSegmenter.Params(minPoints = 5)).count() == 0)
  }

  test("two vessels never share a trip id") {
    val rows = leg(1, 0, 40, p0) ++ leg(2, 0, 40, LatLng(56.0, 11.0))
    val out  = TripSegmenter.segment(df(rows), params)
    val pairs = out.select("vessel_id", "trip_id").distinct().collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    assert(pairs.groupBy(_._2).forall(_._2.map(_._1).distinct.length == 1))
  }

  test("trip ids are stable across recomputation") {
    val rows = leg(1, 0, 40, p0)
    val a = TripSegmenter.segment(df(rows), params).collect().toSet
    val b = TripSegmenter.segment(df(rows), params).collect().toSet
    assert(a == b)
  }

  test("multiple stop/sail cycles yield one trip per sail phase") {
    var t = 0L
    var at = p0
    var rows = Seq.empty[AisRecord]
    for (_ <- 1 to 3) {
      val sail = leg(1, t, 50, at)
      rows ++= sail
      at = LatLng(sail.last.lat, sail.last.lon)
      t += 50 * 60
      rows ++= moored(1, t, 15, at)
      t += 16 * 60
    }
    val out = TripSegmenter.segment(df(rows), params)
    assert(out.select("trip_id").distinct().count() == 3)
  }

  test("ordering inside a trip follows time") {
    val out = TripSegmenter.segment(df(leg(1, 0, 30, p0)), params)
      .orderBy("t").collect().map(_.getAs[Long]("t"))
    assert(out.toSeq == out.toSeq.sorted)
  }

  test("end-to-end: synthetic KIEL raw data segments into about one trip per spec") {
    val raw   = repro.ais.Datasets.kiel(spark, nTrips = 3)
    val clean = Cleaner.clean(raw)
    val out   = TripSegmenter.segment(clean)
    val n     = out.select("trip_id").distinct().count()
    assert(n >= 3 && n <= 6, s"got $n trips for 3 specs")
  }
}
