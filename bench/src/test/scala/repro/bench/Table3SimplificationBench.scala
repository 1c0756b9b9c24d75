package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Prep.printTable
import repro.exp.Tables

/** Reproduces Table 3 — effect of RDP simplification tolerance t on the
  * imputed trajectories over the DAN dataset: average position count,
  * average/maximum rate of turn, and number of turns exceeding 45°, for
  * r in {9, 10} and t in {0, 100, 250, 500, 1000}, plus the Original row.
  *
  * Reproduction target (shape): t=0 has the most positions and the most
  * abrupt >45° turns; growing t monotonically shrinks the position count
  * and (from t >= 250) suppresses >45° turns; the original trajectories
  * have many more positions and a low average rate of turn.
  */
class Table3SimplificationBench extends AnyFunSuite {
  import BenchData._

  private val paper = Map( // (r, t) -> (cnt, avgRot, maxRot, over45)
    (9, 0)     -> Seq(96.35, 30.79, 112.71, 34.13),
    (9, 100)   -> Seq(51.76, 54.92, 112.31, 33.78),
    (9, 250)   -> Seq(35.32, 57.61, 109.96, 23.75),
    (9, 500)   -> Seq(14.57, 44.89, 84.03, 6.11),
    (9, 1000)  -> Seq(6.93, 34.32, 56.05, 1.64),
    (10, 0)    -> Seq(198.31, 30.64, 119.07, 62.37),
    (10, 100)  -> Seq(71.96, 48.53, 116.93, 35.26),
    (10, 250)  -> Seq(21.03, 33.85, 77.01, 4.43),
    (10, 500)  -> Seq(8.62, 24.70, 43.31, 0.60),
    (10, 1000) -> Seq(4.67, 19.85, 27.38, 0.09))
  private val paperOriginal = Seq(595.63, 6.55, 110.79, 33.84)

  test("Table 3: effect of simplification on the imputed trajectories") {
    val table = Tables.table3(dan)
    printTable("Table 3: simplification effect on imputed paths [DAN], ours vs paper",
      Seq("r", "t", "cnt", "Avg rot", "Max rot", ">45", "p.cnt", "p.avg", "p.max", "p.>45"),
      table.rows.map(r => r.cells ++ paper((r.r, r.t)).map(_.toString)) :+
        (Seq("Orig", "-") ++ table.original.cells ++ paperOriginal.map(_.toString)))

    val rows = table.rows.groupBy(_.r).toSeq.sortBy(_._1).map(_._2)
    for (byRes <- rows) {
      // Position count decreases monotonically with tolerance.
      val cnts = byRes.map(_.turns.cnt)
      assert(cnts.zip(cnts.tail).forall { case (a, b) => a >= b }, s"cnt not monotone: $cnts")
      // Abrupt (>45 deg) turns at t=1000 are rarer than at t=0.
      assert(byRes.last.turns.over45 <= byRes.head.turns.over45, s">45 turns not reduced: $byRes")
    }
    // r=10 unsimplified paths carry more positions than r=9 (finer grid).
    assert(rows(1).head.turns.cnt > rows(0).head.turns.cnt)
    // Original trajectories have (much) more positions than imputed+simplified.
    assert(table.original.cnt > rows(0).map(_.turns.cnt).min)
  }
}
