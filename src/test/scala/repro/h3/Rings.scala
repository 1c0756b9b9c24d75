package repro.h3

/** Hex rings of cells, for building test queries at a known hex distance
  * from a cell.
  */
object Rings {

  /** All cells at exactly hex distance `k` from `cell` (k-ring boundary);
    * k = 0 yields the cell itself.
    */
  def ring(cell: Long, k: Int): Seq[Long] = {
    val res = HexGrid.resolution(cell); val cq = HexGrid.axialQ(cell); val cr = HexGrid.axialR(cell)
    if (k == 0) Seq(cell)
    else {
      val dirs = Array((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
      val out  = Seq.newBuilder[Long]
      var q = cq + dirs(4)._1 * k
      var r = cr + dirs(4)._2 * k
      var side = 0
      while (side < 6) {
        var step = 0
        while (step < k) {
          out += HexGrid.encode(res, q, r)
          q += dirs(side)._1; r += dirs(side)._2
          step += 1
        }
        side += 1
      }
      out.result()
    }
  }
}
