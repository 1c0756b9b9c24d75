package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.baselines.SLI
import repro.eval.{DTW, GapHarness}
import repro.geo.{Geo, LatLng}
import repro.h3.HexGrid
import repro.preprocess.{Cleaner, TripSegmenter}

class HabitSpec extends AnyFunSuite with SparkSpec {

  // Shared fixture: KIEL analogue, 70/30 split, graph on the training part.
  private lazy val trips = GapHarness.collectTrips(
    TripSegmenter.segment(Cleaner.clean(repro.ais.Datasets.kiel(spark, nTrips = 10))).cache())
  private lazy val (trainIds, testIds) = GapHarness.split(trips.keys.toSeq)
  private lazy val trainDf = {
    val raw = TripSegmenter.segment(Cleaner.clean(repro.ais.Datasets.kiel(spark, nTrips = 10)))
    raw.filter(raw.col("trip_id").isin(trainIds.toSeq: _*)).cache()
  }
  private lazy val g8 = MotionGraph.build(trainDf, 8, exact = true)
  private lazy val gaps = GapHarness.gapsFor(trips, testIds, gapSec = 3600)

  test("fixture sanity: both splits non-empty, gaps exist") {
    assert(trainIds.nonEmpty && testIds.nonEmpty)
    assert(gaps.nonEmpty)
  }

  test("imputed path starts and ends exactly at the gap endpoints") {
    val h = new Habit(g8, HabitConfig(res = 8, toleranceM = 100))
    for (g <- gaps.take(5)) {
      val p = h.impute(g.from, g.to)
      assert(p.head == g.from && p.last == g.to)
      assert(p.size >= 2)
    }
  }

  test("config/graph resolution mismatch is rejected") {
    intercept[IllegalArgumentException](new Habit(g8, HabitConfig(res = 9)))
  }

  test("imputation follows the historical corridor, not the straight line") {
    val h = new Habit(g8, HabitConfig(res = 8, toleranceM = 100))
    val long = gaps.maxBy(g => Geo.haversineM(g.from, g.to))
    val imputed = h.impute(long.from, long.to)
    // Every imputed vertex must be near some training cell median.
    val nodePos = g8.nodes.values.map(n => LatLng(n.medLat, n.medLon)).toIndexedSeq
    imputed.foreach { p =>
      val d = nodePos.map(Geo.haversineM(_, p)).min
      assert(d < HexGrid.edgeM(8) * 3, s"imputed vertex $d m off the corridor")
    }
  }

  test("HABIT beats SLI on gaps spanning the route's curve") {
    val h = new Habit(g8, HabitConfig(res = 8, toleranceM = 100))
    // Consider the longest gaps, where the lane's curvature matters.
    val hard = gaps.sortBy(g => -Geo.haversineM(g.from, g.to)).take(3)
    val hErr = hard.map(g => DTW.pathErrorM(h.impute(g.from, g.to), g.truth))
    val sErr = hard.map(g => DTW.pathErrorM(SLI.impute(g.from, g.to), g.truth))
    assert(hErr.sum < sErr.sum,
      s"HABIT ${hErr.sum / 3} m vs SLI ${sErr.sum / 3} m")
  }

  test("median projection is at least as accurate as cell centers") {
    val hw = new Habit(g8, HabitConfig(8, 100, Projection.Median))
    val hc = new Habit(g8, HabitConfig(8, 100, Projection.Center))
    val ew = GapHarness.evaluate(hw.impute, gaps).meanDtw
    val ec = GapHarness.evaluate(hc.impute, gaps).meanDtw
    assert(ew <= ec * 1.05, s"median $ew vs center $ec")
  }

  test("simplification tolerance reduces vertex count, not accuracy (Fig. 4)") {
    val h0   = new Habit(g8, HabitConfig(8, 0))
    val h250 = new Habit(g8, HabitConfig(8, 250))
    val g    = gaps.maxBy(g => Geo.haversineM(g.from, g.to))
    val p0   = h0.impute(g.from, g.to)
    val p250 = h250.impute(g.from, g.to)
    assert(p250.size <= p0.size)
    val e0   = DTW.pathErrorM(p0, g.truth)
    val e250 = DTW.pathErrorM(p250, g.truth)
    assert(e250 < e0 * 2 + 100, s"t=250 degraded accuracy: $e0 -> $e250")
  }

  test("simplified paths have fewer abrupt turns (Table 3 trend)") {
    val h0   = new Habit(g8, HabitConfig(8, 0))
    val h500 = new Habit(g8, HabitConfig(8, 500))
    val over45 = (h: Habit) => gaps.map(g => Geo.turnStats(h.impute(g.from, g.to)).over45).sum
    assert(over45(h500) <= over45(h0))
  }

  test("endpoints in unseen cells are snapped to the nearest graph node") {
    val h = new Habit(g8, HabitConfig(8, 100))
    val g = gaps.head
    val offFrom = Geo.destination(g.from, 90.0, 5000.0)
    val p = h.impute(offFrom, g.to)
    assert(p.head == offFrom && p.last == g.to)
  }

  test("constructing a Habit builds the landmark tables, so no impute does") {
    // The lazy val's backing field stays null until the tables are built.
    val field = classOf[MotionGraph].getDeclaredField("landmarks")
    field.setAccessible(true)
    val g = MotionGraph.build(trainDf, 8, exact = true)
    assert(field.get(g) == null)
    val h = new Habit(g, HabitConfig(8, 100))
    val tables = field.get(g)
    assert(tables != null)
    for (gap <- gaps.take(5)) h.impute(gap.from, gap.to)
    assert(field.get(g) eq tables)
  }

  test("empty graph falls back to the straight segment") {
    val h = new Habit(MotionGraph(8, Nil, Nil), HabitConfig(8, 100))
    val p = h.impute(LatLng(55, 11), LatLng(55.5, 11.2))
    assert(p == IndexedSeq(LatLng(55, 11), LatLng(55.5, 11.2)))
  }

  test("imputation latency is milliseconds, not seconds (Table 4 scale)") {
    val h = new Habit(g8, HabitConfig(8, 100))
    val res = GapHarness.evaluate(h.impute, gaps)
    assert(res.avgLatency < 0.5, s"avg latency ${res.avgLatency}s")
  }
}
