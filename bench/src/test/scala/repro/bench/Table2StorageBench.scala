package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Prep.printTable
import repro.exp.Tables

/** Reproduces Table 2 — framework storage size (MB) for HABIT at H3
  * resolutions 6–10 and GTI at rd in {1e-4, 5e-4, 1e-3}, on KIEL and SAR.
  * The reproduction target is the shape: HABIT compresses to well under
  * the raw data size and grows ~5-7x per resolution step; GTI is orders of
  * magnitude larger and grows with rd and with data diversity (SAR > KIEL).
  */
class Table2StorageBench extends AnyFunSuite {
  import BenchData._

  private val paper = Map( // config -> (KIEL MB, SAR MB)
    "r = 6" -> (0.06, 0.22), "r = 7" -> (0.29, 0.59), "r = 8" -> (1.54, 2.96),
    "r = 9" -> (8.20, 18.03), "r = 10" -> (37.28, 57.40),
    "rd = 1.0E-4" -> (50.24, 115.19), "rd = 5.0E-4" -> (369.41, 3541.89),
    "rd = 0.001" -> (1428.77, 4844.12))

  test("Table 2: framework storage size") {
    val rows = Tables.table2(kiel, sar)
    printTable("Table 2: framework storage size (MB), ours vs paper",
      Seq("Method", "Config", "KIEL", "SAR", "paper KIEL", "paper SAR"),
      rows.map { r =>
        val (pk, ps) = paper(r.config)
        r.cells ++ Seq(pk.toString, ps.toString)
      })

    val (habitRows, gtiRows) = rows.partition(_.method == "HABIT")
    // Shape assertions (the paper's qualitative findings):
    // 1. HABIT size grows monotonically with resolution on both datasets.
    assert(habitRows.sliding(2).forall { case Seq(a, b) =>
      a.kielMb < b.kielMb && a.sarMb < b.sarMb })
    // 2. SAR (diverse traffic) needs more space than KIEL at every r.
    assert(habitRows.forall(r => r.sarMb > r.kielMb))
    // 3. GTI size grows with rd.
    assert(gtiRows.sliding(2).forall { case Seq(a, b) =>
      a.kielMb <= b.kielMb && a.sarMb <= b.sarMb })
    // 4. GTI is at least an order of magnitude larger than HABIT's compact
    //    configurations (r <= 7) on the same dataset.
    val habitR7k = habitRows.find(_.config == "r = 7").get.kielMb
    assert(gtiRows.head.kielMb > habitR7k * 10,
      s"GTI ${gtiRows.head.kielMb} MB vs HABIT r=7 ${habitR7k} MB")
  }
}
