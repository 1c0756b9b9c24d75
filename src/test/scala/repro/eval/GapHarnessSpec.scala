package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.baselines.SLI
import repro.geo.LatLng
import repro.preprocess.{Cleaner, TripSegmenter}
import scala.util.Random

class GapHarnessSpec extends AnyFunSuite with SparkSpec {

  private lazy val trips = GapHarness.collectTrips(
    TripSegmenter.segment(Cleaner.clean(repro.ais.Datasets.kiel(spark, nTrips = 6))))

  test("collectTrips returns time-ordered sequences") {
    assert(trips.nonEmpty)
    trips.values.foreach { pts =>
      assert(pts.map(_.t) == pts.map(_.t).sorted)
    }
  }

  test("split is deterministic and respects the fraction") {
    val ids = (1L to 100L).toSeq
    val (tr1, te1) = GapHarness.split(ids, 0.7, seed = 1)
    val (tr2, te2) = GapHarness.split(ids, 0.7, seed = 1)
    assert(tr1 == tr2 && te1 == te2)
    assert(tr1.size == 70 && te1.size == 30)
    assert((tr1 ++ te1) == ids.toSet)
  }

  test("different seeds give different splits") {
    val ids = (1L to 100L).toSeq
    assert(GapHarness.split(ids, 0.7, 1)._1 != GapHarness.split(ids, 0.7, 2)._1)
  }

  test("makeGap: the withheld window has the requested duration") {
    val pts = (0 until 200).map(i => TimedPoint(i * 60L, LatLng(55.0, 11.0 + i * 0.001)))
    val g = GapHarness.makeGap(1L, pts.toIndexedSeq, 3600, new Random(1)).get
    val insideT = pts.filter(p => p.p != g.from && p.p != g.to &&
      g.truth.contains(p.p)).map(_.t)
    assert(insideT.max - insideT.min <= 3600)
    assert(g.truth.head == g.from && g.truth.last == g.to)
  }

  test("makeGap: too-short trips yield None") {
    val pts = (0 until 10).map(i => TimedPoint(i * 60L, LatLng(55.0, 11.0)))
    assert(GapHarness.makeGap(1L, pts.toIndexedSeq, 3600, new Random(1)).isEmpty)
  }

  test("makeGap: truth is contiguous in time and space") {
    val pts = (0 until 300).map(i => TimedPoint(i * 60L, LatLng(55.0, 11.0 + i * 0.001)))
    val g = GapHarness.makeGap(1L, pts.toIndexedSeq, 3600, new Random(2)).get
    val lons = g.truth.map(_.lon)
    assert(lons == lons.sorted, "truth points out of order")
  }

  test("gapsFor: at most one gap per test trip, deterministic") {
    val ids = trips.keySet
    val g1 = GapHarness.gapsFor(trips, ids, 3600, seed = 5)
    val g2 = GapHarness.gapsFor(trips, ids, 3600, seed = 5)
    assert(g1.map(_.tripId) == g2.map(_.tripId))
    assert(g1.map(_.tripId).distinct.size == g1.size)
    assert(g1.nonEmpty)
  }

  test("gap endpoints coincide with real reports of the trip") {
    val g = GapHarness.gapsFor(trips, trips.keySet, 3600, seed = 5).head
    val pts = trips(g.tripId).map(_.p)
    assert(pts.contains(g.from) && pts.contains(g.to))
  }

  test("evaluate: latencies and errors have one entry per gap") {
    val gaps = GapHarness.gapsFor(trips, trips.keySet, 3600)
    val res  = GapHarness.evaluate(SLI.impute, gaps)
    assert(res.nGaps == gaps.size)
    assert(res.latenciesSec.forall(_ >= 0.0))
    assert(res.dtws.forall(_ >= 0.0))
    assert(res.maxLatency >= res.avgLatency)
  }

  test("evaluate: the parallel scores and cell counts equal serial DTW calls, in gap order, on every run") {
    // Synthetic gaps of many sizes, so the scoring threads finish out of order.
    val rnd = new Random(11)
    val gaps = IndexedSeq.tabulate(300) { k =>
      val truth = IndexedSeq.iterate(LatLng(54.0 + rnd.nextDouble(), 10.0 + rnd.nextDouble()), 2 + rnd.nextInt(60))(p =>
        LatLng(p.lat + 0.003 * rnd.nextGaussian(), p.lon + 0.003 * rnd.nextGaussian()))
      Gap(k.toLong, truth.head, truth.last, truth)
    }
    val serial = gaps.map(g => DTW.pathErrorM(SLI.impute(g.from, g.to), g.truth) -> DTW.lastCells)
    val cells = serial.map(_._2).sum
    for (_ <- 1 to 5) {
      val res = GapHarness.evaluate(SLI.impute, gaps)
      assert(res.dtws == serial.map(_._1))
      assert(res.dtwCells == cells && res.latenciesSec.size == gaps.size)
    }
    val (paths, latencies) = GapHarness.impute(SLI.impute, gaps)
    assert(paths == gaps.map(g => SLI.impute(g.from, g.to)) && latencies.size == gaps.size)
    assert(GapHarness.score(paths, gaps) == (serial.map(_._1), cells))
  }

  test("EvalResult statistics") {
    val r = EvalResult(IndexedSeq(10.0, 30.0, 20.0), IndexedSeq(0.1, 0.3, 0.2))
    assert(math.abs(r.meanDtw - 20.0) < 1e-9)
    assert(math.abs(r.medianDtw - 20.0) < 1e-9)
    assert(math.abs(r.avgLatency - 0.2) < 1e-9)
    assert(math.abs(r.maxLatency - 0.3) < 1e-9)
  }

  test("EvalResult on empty input is all zeros") {
    val r = EvalResult(IndexedSeq.empty, IndexedSeq.empty)
    assert(r.meanDtw == 0.0 && r.medianDtw == 0.0 && r.avgLatency == 0.0 && r.maxLatency == 0.0)
    assert(r.p50Latency == 0.0 && r.p99Latency == 0.0)
  }

  test("EvalResult latency percentiles are nearest-rank, like the DTW ones") {
    val rnd = new Random(3)
    for (n <- Seq(1, 2, 3, 10, 99, 100, 101, 1000)) {
      val lats = IndexedSeq.fill(n)(rnd.nextDouble())
      val r = EvalResult(lats, lats)
      val sorted = lats.sorted
      for (q <- Seq(0.0, 0.25, 0.5, 0.9, 0.99, 1.0)) {
        assert(r.percentileLatency(q) == sorted(math.min(n - 1, (q * n).toInt)), s"n=$n q=$q")
        assert(r.percentileLatency(q) == r.percentileDtw(q))
      }
      assert(r.p50Latency == r.medianDtw && r.p99Latency == r.percentileLatency(0.99))
      assert(r.p50Latency <= r.p99Latency && r.p99Latency <= r.maxLatency)
    }
  }

  test("trainPaths provides ordered point sequences for GTI") {
    val (trainIds, _) = GapHarness.split(trips.keys.toSeq)
    val paths = GapHarness.trainPaths(trips, trainIds)
    assert(paths.size == trainIds.size)
    assert(paths.forall(_.nonEmpty))
  }

  test("longer gaps produce larger SLI error on the curved KIEL lane (Fig. 7)") {
    val ids = trips.keySet
    val short = GapHarness.evaluate(SLI.impute, GapHarness.gapsFor(trips, ids, 3600, 5))
    val long  = GapHarness.evaluate(SLI.impute, GapHarness.gapsFor(trips, ids, 4 * 3600, 5))
    assert(long.meanDtw >= short.meanDtw * 0.8,
      s"4h ${long.meanDtw} vs 1h ${short.meanDtw}")
  }
}
