package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Prep.{fmt, printTable}
import repro.exp.Tables

/** Reproduces Table 4 — average and maximum imputation query latency (s),
  * with our p50 and p99 beside them, for HABIT (r, t) and GTI (rm, rd)
  * configurations over the same 60-min gaps on KIEL and SAR. Also prints
  * mean/median DTW per configuration, covering the accuracy comparison of
  * Figure 5 (HABIT comparable to GTI, both far better than SLI on the
  * confined KIEL route; HABIT stable on the diverse SAR traffic).
  *
  * Reproduction target (shape): HABIT stays sub-second with latency
  * growing in r; GTI is consistently slower than HABIT and degrades on
  * SAR; maximum latencies spike for GTI's finer configurations.
  */
class Table4LatencyBench extends AnyFunSuite {
  import BenchData._

  private val paper = Map( // (dataset, method, config) -> (avg s, max s)
    ("KIEL", "HABIT", "r=9 t=100")       -> (0.024, 0.041),
    ("KIEL", "HABIT", "r=9 t=250")       -> (0.019, 0.047),
    ("KIEL", "HABIT", "r=10 t=100")      -> (0.071, 0.121),
    ("KIEL", "HABIT", "r=10 t=250")      -> (0.070, 0.128),
    ("KIEL", "GTI", "rm=250 rd=1e-4")    -> (0.261, 0.281),
    ("KIEL", "GTI", "rm=250 rd=5e-4")    -> (0.300, 0.431),
    ("KIEL", "GTI", "rm=250 rd=1e-3")    -> (0.402, 0.931),
    ("SAR", "HABIT", "r=9 t=100")        -> (0.032, 0.202),
    ("SAR", "HABIT", "r=9 t=250")        -> (0.031, 0.186),
    ("SAR", "HABIT", "r=10 t=100")       -> (0.139, 0.963),
    ("SAR", "HABIT", "r=10 t=250")       -> (0.139, 0.866),
    ("SAR", "GTI", "rm=250 rd=1e-4")     -> (0.492, 0.550),
    ("SAR", "GTI", "rm=250 rd=5e-4")     -> (0.711, 1.598),
    ("SAR", "GTI", "rm=500 rd=1e-3")     -> (1.216, 5.185))

  test("Table 4: imputation query latency (and Figure 5 accuracy)") {
    val rows = Tables.table4(kiel, sar)
    printTable("Table 4: query latency (s) + DTW accuracy, ours vs paper",
      Seq("Dataset", "Method", "Config", "Avg s", "p50 s", "p99 s", "Max s", "meanDTW m", "medDTW m",
          "DTW Mcells", "paper Avg", "paper Max"),
      rows.map { r =>
        val p = paper.get((r.dataset, r.method, r.config))
        r.cells ++ Seq(p.fold("-")(_._1.toString), p.fold("-")(_._2.toString))
      })
    for (name <- Seq("KIEL", "SAR")) {
      val dsRows = rows.filter(_.dataset == name)
      println(s"$name gaps: ${dsRows.head.result.nGaps}")
      assert(dsRows.forall(_.result.nGaps > 0), s"no eligible gaps on $name")
      val habitRows = dsRows.filter(_.method == "HABIT").map(_.result)
      val gtiRows   = dsRows.filter(_.method == "GTI").map(_.result)
      val habitAvg = habitRows.map(_.avgLatency)
      val gtiAvg   = gtiRows.map(_.avgLatency)
      // HABIT sub-second on average; slower at finer resolution (r=10 > r=9).
      assert(habitAvg.forall(_ < 1.0), s"$name: HABIT not sub-second: $habitAvg")
      // Finer resolution means longer cell paths: r=10 should not be
      // substantially faster than r=9 at the same tolerance (warm-up done).
      assert(habitRows(3).avgLatency >= habitRows(1).avgLatency * 0.5,
        s"$name: r=10 unexpectedly much faster than r=9")
      // GTI is slower than HABIT's fastest configuration.
      assert(gtiAvg.min > habitAvg.min, s"$name: GTI ${gtiAvg.min} not slower than HABIT ${habitAvg.min}")
      // Figure 5 shape on KIEL: both model-based methods beat SLI.
      if (name == "KIEL") {
        val sliDtw = dsRows.find(_.method == "SLI").get.result.meanDtw
        assert(habitRows.map(_.meanDtw).min < sliDtw, s"HABIT worse than SLI on KIEL")
        assert(gtiRows.map(_.meanDtw).min < sliDtw, s"GTI worse than SLI on KIEL")
      }
    }
  }

  test("Figure 7 companion: HABIT accuracy degrades sub-linearly with gap size") {
    val errs = Tables.figure7(kiel).map(_.medianDtw)
    println(s"\nFigure 7 [KIEL, r=9 t=100] median DTW for 1h/2h/4h gaps: " +
      errs.map(_.fold("n/a")(fmt)).mkString(" / "))
    assert(errs.exists(_.nonEmpty))
    // Median error for 4h gaps stays below 4x the 1h error (200 m floor):
    // "the increase in median error is not proportional to the gap length".
    for (e1 <- errs.head; e4 <- errs.last)
      assert(e4 < math.max(200.0, e1 * 4.0), s"4h error $e4 blew up vs 1h $e1")
  }
}
