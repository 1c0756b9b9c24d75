package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Prep.{fmt, printTable}
import repro.exp.Tables

/** Reproduces Table 1 — characteristics of the AIS datasets — for the
  * synthetic analogues. Paper values are printed alongside for diffing;
  * ours are ~10–20x smaller by design (see EXPERIMENTS.md).
  */
class Table1DatasetsBench extends AnyFunSuite {
  import BenchData._

  test("Table 1: dataset characteristics") {
    val paper = Map(
      "DAN"  -> ("Passenger", 786.0, 4384003L, 1292L, 16L),
      "KIEL" -> ("Passenger", 145.0, 806498L, 86L, 2L),
      "SAR"  -> ("All", 141.0, 1171162L, 20778L, 2579L))
    val rows = Tables.table1(Seq(dan, kiel, sar))
    printTable("Table 1: AIS dataset characteristics (ours vs paper)",
      Seq("Dataset", "Type", "Size MB", "Positions", "Trips", "Ships",
          "paper MB", "paper Pos", "paper Trips", "paper Ships"),
      rows.map { r =>
        val (ptype, pmb, ppos, ptrips, pships) = paper(r.dataset)
        Seq(r.dataset, ptype) ++ r.cells.tail ++
          Seq(fmt(pmb), ppos.toString, ptrips.toString, pships.toString)
      })

    val Seq(danRow, kielRow, sarRow) = rows
    assert(rows.forall(r => r.positions > 0 && r.trips > 0 && r.ships > 0))
    // Shape assertions mirroring the paper's dataset design:
    assert(kielRow.ships == 2)
    assert(danRow.ships == 16)
    assert(sarRow.ships > 50, s"SAR should have a large fleet, got ${sarRow.ships}")
    // SAR has many short trips; DAN has long ones.
    val avgDan = danRow.positions.toDouble / danRow.trips
    val avgSar = sarRow.positions.toDouble / sarRow.trips
    assert(avgDan > avgSar, "DAN trips should be longer than SAR trips on average")
  }
}
