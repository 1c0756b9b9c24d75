package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.ais.Datasets

/** Every table function on small datasets: one row per dataset and
  * configuration, and finite values throughout.
  */
class TablesSpec extends AnyFunSuite with SparkSpec {

  private lazy val dan  = Prep.prepare("DAN", Datasets.dan(spark, 12).cache())
  private lazy val kiel = Prep.prepare("KIEL", Datasets.kiel(spark, 10).cache())
  private lazy val sar  = Prep.prepare("SAR", Datasets.sar(spark, 20, 8).cache())

  test("table1: one row per dataset with positive counts") {
    val rows = Tables.table1(Seq(dan, kiel, sar))
    assert(rows.map(_.dataset) == Seq("DAN", "KIEL", "SAR"))
    assert(rows.forall(r => r.sizeMb.isFinite && r.sizeMb > 0))
    assert(rows.forall(r => r.positions > 0 && r.trips > 0 && r.ships > 0))
  }

  test("table2: HABIT r = 6..10 then GTI by rd; HABIT size grows with r") {
    val rows = Tables.table2(kiel, sar)
    assert(rows.map(_.config) ==
      (6 to 10).map(r => s"r = $r") ++ Seq(1e-4, 5e-4, 1e-3).map(rd => s"rd = $rd"))
    assert(rows.forall(r => r.kielMb.isFinite && r.sarMb.isFinite))
    assert(rows.take(5).sliding(2).forall { case Seq(a, b) =>
      a.kielMb < b.kielMb && a.sarMb < b.sarMb })
  }

  test("table3: one row per (r, t) plus the originals") {
    val t3 = Tables.table3(dan)
    assert(t3.rows.map(r => (r.r, r.t)) ==
      (for (r <- Seq(9, 10); t <- Seq(0, 100, 250, 500, 1000)) yield (r, t)))
    for (m <- t3.rows.map(_.turns) :+ t3.original)
      assert(Seq(m.cnt, m.avgRot, m.maxRot, m.over45).forall(_.isFinite), m)
  }

  test("table4: 4 HABIT, 3 GTI and 1 SLI rows per dataset") {
    val rows = Tables.table4(kiel, sar)
    assert(rows.map(r => (r.dataset, r.method)) == Seq("KIEL", "SAR").flatMap { ds =>
      (Seq.fill(4)("HABIT") ++ Seq.fill(3)("GTI") :+ "SLI").map(ds -> _)
    })
    assert(rows.head.result.nGaps > 0)
    for (r <- rows; e = r.result)
      assert(Seq(e.avgLatency, e.maxLatency, e.meanDtw, e.medianDtw).forall(_.isFinite), r)
  }

  test("figure7: one row per gap duration with finite medians") {
    val rows = Tables.figure7(kiel)
    assert(rows.map(_.gapSec) == Seq(3600L, 7200L, 14400L))
    assert(rows.head.medianDtw.nonEmpty && rows.flatMap(_.medianDtw).forall(_.isFinite))
  }
}
