package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{Geo, LatLng}
import scala.util.Random

/** The lower-bound pruning of [[DTW]] against the full-matrix
  * [[ReferenceDTW]]: where the pair bound is tight (so a bound a little too
  * high, or without its margins, drops a cell of the optimal warping path),
  * where it must fall back (the poles, the antimeridian, longitudes beyond
  * ±180), and on random paths over the globe. Then the upper bound: where
  * the planar pass's optimum may differ from the haversine one, and its
  * warping path on random paths; and the block search of the row and
  * column minima against the brute-force pass.
  */
class DTWBoundSpec extends AnyFunSuite {

  private def same(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Unit =
    for ((x, y) <- Seq((a, b), (b, a))) {
      val (c, steps) = ReferenceDTW.align(x, y)
      assert(DTW.cost(x, y) == c, s"$x, $y")
      assert(DTW.normalized(x, y) == c / steps, s"$x, $y")
    }

  /** A north-south or east-west run of n points `stepDeg` apart. */
  private def run(start: LatLng, n: Int, stepDeg: Double, north: Boolean): IndexedSeq[LatLng] =
    (0 until n).map(k =>
      if (north) LatLng(start.lat + k * stepDeg, start.lon) else LatLng(start.lat, start.lon + k * stepDeg))

  test("identical paths") {
    val rnd = new Random(3)
    for (_ <- 0 until 200) {
      val p = run(LatLng(-60 + 120 * rnd.nextDouble(), -170 + 340 * rnd.nextDouble()),
                  1 + rnd.nextInt(40), 1e-4 + 0.01 * rnd.nextDouble(), rnd.nextBoolean())
      same(p, p)
      assert(DTW.cost(p, p) == 0.0)
    }
  }

  test("copies offset along a meridian or a parallel, from a millimetre to 100 km") {
    // The diagonal is the optimal warping path and the upper bound, and the
    // pair bound of each diagonal pair is within Eps of its distance: along
    // a meridian it is R·Δφ against a haversine of R·Δφ.
    val rnd = new Random(5)
    for (_ <- 0 until 3000) {
      val north = rnd.nextBoolean()
      val start = LatLng(-70 + 140 * rnd.nextDouble(), -170 + 340 * rnd.nextDouble())
      val step = math.pow(10, -8 + 6 * rnd.nextDouble())
      val p = run(start, 1 + rnd.nextInt(30), step, north)
      val offDeg = step * (0.05 + 0.9 * rnd.nextDouble()) * (if (rnd.nextBoolean()) 1 else -1)
      // Offset sideways (a parallel run shifted along the meridian, or the
      // reverse) and along the run itself.
      val side = p.map(q => if (north) LatLng(q.lat, q.lon + offDeg) else LatLng(q.lat + offDeg, q.lon))
      val along = p.map(q => if (north) LatLng(q.lat + offDeg, q.lon) else LatLng(q.lat, q.lon + offDeg))
      same(p, side)
      same(p, along)
    }
  }

  test("tight offsets prune to a narrow band, and the cell counter repeats") {
    val p = run(LatLng(57.0, 11.0), 200, 0.002, north = true)
    val q = p.map(x => LatLng(x.lat, x.lon + 0.001))
    DTW.cost(p, q)
    val cells = DTW.lastCells
    assert(cells >= 200 && cells <= 3 * 200, s"$cells cells")
    DTW.cost(p, q)
    assert(DTW.lastCells == cells)
    // Pruning by the upper bound alone keeps far more of a pair that is
    // wider than the bound's span.
    val wide = p.map(x => LatLng(x.lat, x.lon + 6.0))
    DTW.cost(p ++ wide, q ++ wide)
    assert(DTW.lastCells > 2 * 400)
  }

  test("the poles, the antimeridian and longitudes beyond ±180 fall back") {
    val rnd = new Random(8)
    def near(p: LatLng, deg: Double) =
      LatLng(math.max(-90.0, math.min(90.0, p.lat + deg * rnd.nextGaussian())), p.lon + deg * rnd.nextGaussian())
    val pole = LatLng(90.0, 0.0)
    val cases = Seq(
      // Points on the pole at many longitudes: every longitude is the same point.
      (IndexedSeq.tabulate(12)(k => LatLng(90.0, 30.0 * k)), IndexedSeq(pole, LatLng(89.99, 0.0), LatLng(90.0, 180.0))),
      (IndexedSeq.tabulate(12)(k => LatLng(-90.0, -170.0 + 30.0 * k)), IndexedSeq(LatLng(-89.999, 45.0), LatLng(-90.0, 0.0))),
      // Near the pole across many meridians: the plane over (lat, c·lon) is
      // far from the sphere there.
      (IndexedSeq.tabulate(20)(k => LatLng(89.5, 18.0 * k)), IndexedSeq.tabulate(20)(k => LatLng(89.4, 180.0 + 18.0 * k))),
      // Across the antimeridian.
      (run(LatLng(10.0, 179.99), 20, 0.001, north = true), run(LatLng(10.0, -179.99), 20, 0.001, north = true)),
      (IndexedSeq.tabulate(30)(k => LatLng(60.0, 179.9 + 0.01 * k)),
       IndexedSeq.tabulate(30)(k => LatLng(60.001, -179.9 - 0.01 * k + 0.005))),
      // 540 is 180, and -360 is 0.
      (run(LatLng(0.0, 180.0), 15, 0.002, north = true), run(LatLng(0.0, 540.0), 15, 0.002, north = true)),
      (run(LatLng(50.0, 0.001), 15, 0.002, north = true), run(LatLng(50.0, -360.0), 15, 0.002, north = true)))
    for ((a, b) <- cases) same(a, b)
    for (_ <- 0 until 300) {
      val c = if (rnd.nextBoolean()) LatLng(if (rnd.nextBoolean()) 90.0 else -90.0, 360 * rnd.nextDouble())
              else LatLng(-60 + 120 * rnd.nextDouble(), if (rnd.nextBoolean()) 180.0 else 540.0)
      val deg = math.pow(10, -4 + 3 * rnd.nextDouble())
      same(IndexedSeq.fill(1 + rnd.nextInt(15))(near(c, deg)), IndexedSeq.fill(1 + rnd.nextInt(15))(near(c, deg)))
    }
  }

  test("single-point paths") {
    val rnd = new Random(13)
    for (_ <- 0 until 500) {
      val a = LatLng(-89 + 178 * rnd.nextDouble(), -180 + 360 * rnd.nextDouble())
      val b = Geo.destination(a, 360 * rnd.nextDouble(), math.pow(10, -3 + 8 * rnd.nextDouble()))
      val walk = IndexedSeq.iterate(b, 1 + rnd.nextInt(20))(p => Geo.destination(p, 360 * rnd.nextDouble(), 300.0))
      same(IndexedSeq(a), IndexedSeq(b))
      same(IndexedSeq(a), walk)
    }
  }

  test("random paths over the globe") {
    val rnd = new Random(34)
    def walk(start: LatLng, n: Int, stepM: Double) =
      IndexedSeq.iterate(start, n)(p => Geo.destination(p, 360 * rnd.nextDouble(), stepM * rnd.nextDouble()))
    for (_ <- 0 until 3000) {
      val start = LatLng(-90 + 180 * rnd.nextDouble(), -180 + 360 * rnd.nextDouble())
      val stepM = math.pow(10, 1 + 4 * rnd.nextDouble())
      val a = walk(start, 1 + rnd.nextInt(40), stepM)
      val b = walk(Geo.destination(start, 360 * rnd.nextDouble(), stepM * 5 * rnd.nextDouble()),
                   1 + rnd.nextInt(40), stepM)
      same(a, b)
    }
    // Points anywhere on the globe.
    for (_ <- 0 until 500) {
      def any() = LatLng(-90 + 180 * rnd.nextDouble(), -540 + 1080 * rnd.nextDouble())
      same(IndexedSeq.fill(1 + rnd.nextInt(10))(any()), IndexedSeq.fill(1 + rnd.nextInt(10))(any()))
    }
  }

  /** A random walk of n points, steps of up to `stepM` metres. */
  private def walk(rnd: Random, start: LatLng, n: Int, stepM: Double): IndexedSeq[LatLng] =
    IndexedSeq.iterate(start, n)(p => Geo.destination(p, 360 * rnd.nextDouble(), stepM * rnd.nextDouble()))

  test("where the planar and the haversine optima can differ, the score is still exact") {
    val rnd = new Random(21)
    def pair(start: LatLng, stepM: Double) = {
      val a = walk(rnd, start, 1 + rnd.nextInt(40), stepM)
      (a, walk(rnd, Geo.destination(start, 360 * rnd.nextDouble(), 3 * stepM * rnd.nextDouble()),
               1 + rnd.nextInt(40), stepM))
    }
    for (_ <- 0 until 400) {
      // |lat| ≥ 80: the planar plane shears against the sphere.
      val lat = (80 + 9.99 * rnd.nextDouble()) * (if (rnd.nextBoolean()) 1 else -1)
      val (a, b) = pair(LatLng(lat, -180 + 360 * rnd.nextDouble()), math.pow(10, 1 + 4 * rnd.nextDouble()))
      same(a, b)
      // Across the antimeridian, and with some longitudes written as lon + 360 (540 for 180).
      val (c, d) = pair(LatLng(-70 + 140 * rnd.nextDouble(), 179.9 + 0.2 * rnd.nextDouble()), 2000.0)
      same(c, d)
      same(c.map(p => if (rnd.nextBoolean()) LatLng(p.lat, p.lon + 360) else p), d)
      // Spans over 5°: no lower bound, and steps of up to 300 km.
      val (e, f) = pair(LatLng(-60 + 120 * rnd.nextDouble(), -170 + 340 * rnd.nextDouble()), 3e5)
      same(e, f)
    }
    for (_ <- 0 until 300) {
      // Duplicated points: every point repeated up to four times.
      val (a, b) = pair(LatLng(-60 + 120 * rnd.nextDouble(), -170 + 340 * rnd.nextDouble()), 500.0)
      val dup = a.flatMap(p => IndexedSeq.fill(1 + rnd.nextInt(4))(p))
      same(dup, b)
      same(dup, a)
      same(dup, dup.reverse)
    }
    // Exact ties: runs along a meridian, one midway between the other's
    // points, so a cell's predecessors cost the same.
    for (n <- 1 to 12; m <- 1 to 12; step <- Seq(1e-3, 0.01)) {
      val a = run(LatLng(10.0, 20.0), n, step, north = true)
      val b = run(LatLng(10.0 + step / 2, 20.0), m, step, north = true)
      same(a, b)
      same(a, a.map(p => LatLng(p.lat, 20.0 + step)) ++ a)
      same(IndexedSeq.fill(n)(LatLng(0.0, 0.0)), IndexedSeq.fill(m)(LatLng(0.0, 0.0)))
    }
  }

  test("the upper bound is the cost of a warping path from the first cell to the last") {
    val rnd = new Random(55)
    def check(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Unit = {
      val (ub, path) = DTW.upperBound(a, b)
      assert(path.head == ((0, 0)) && path.last == ((a.size - 1, b.size - 1)), s"$a, $b")
      for (((i, j), (k, l)) <- path.zip(path.tail))
        assert(Seq((1, 1), (1, 0), (0, 1)).contains((k - i, l - j)), s"step ($i, $j) -> ($k, $l) of $a, $b")
      val cost = path.foldLeft(0.0) { case (acc, (i, j)) => Geo.haversineM(a(i), b(j)) + acc }
      assert(ub == cost && ub >= DTW.cost(a, b), s"$a, $b")
    }
    for (_ <- 0 until 2000) {
      val start = LatLng(-89 + 178 * rnd.nextDouble(), -180 + 360 * rnd.nextDouble())
      val stepM = math.pow(10, 1 + 4 * rnd.nextDouble())
      val a = walk(rnd, start, 1 + rnd.nextInt(60), stepM)
      check(a, walk(rnd, Geo.destination(start, 360 * rnd.nextDouble(), 5 * stepM * rnd.nextDouble()),
                    1 + rnd.nextInt(60), stepM))
      check(a, a)
    }
  }

  test("the block search finds the brute-force row and column minima bit for bit") {
    val rnd = new Random(89)
    def check(a: IndexedSeq[LatLng], b: IndexedSeq[LatLng]): Unit = {
      val pa = new DTW.Points(a, "a"); val pb = new DTW.Points(b, "b")
      for (c <- Seq(math.min(pa.cos.min, pb.cos.min), rnd.nextDouble(), 1.0)) {
        val (rowMin, colMin) = ReferenceDTW.leastQ(pa, pb, c)
        def bits(x: Array[Double]) = x.toSeq.map(java.lang.Double.doubleToRawLongBits)
        assert(bits(DTW.leastQ(pa, pb, c)) == bits(rowMin), s"rows of $a, $b, c = $c")
        assert(bits(DTW.leastQ(pb, pa, c)) == bits(colMin), s"columns of $a, $b, c = $c")
      }
    }
    for (_ <- 0 until 1500) {
      val start = LatLng(-89 + 178 * rnd.nextDouble(), -540 + 1080 * rnd.nextDouble())
      val stepM = math.pow(10, -2 + 7 * rnd.nextDouble())
      check(walk(rnd, start, 1 + rnd.nextInt(100), stepM),
            walk(rnd, Geo.destination(start, 360 * rnd.nextDouble(), 5 * stepM * rnd.nextDouble()),
                 1 + rnd.nextInt(100), stepM))
    }
    // Crafted: exact ties between blocks, points on a block's bounding
    // circle, duplicates, one point, far-apart and identical paths.
    val grid = for (i <- 0 until 8; j <- 0 until 8) yield LatLng(50 + 0.01 * i, 8 + 0.01 * j)
    val ring = IndexedSeq.tabulate(48)(k => Geo.destination(LatLng(0.0, 0.0), 7.5 * k, 1000.0))
    val cases = Seq(
      (grid, grid), (grid, grid.reverse), (grid, IndexedSeq(LatLng(50.035, 8.035))),
      (IndexedSeq(LatLng(0.0, 0.0)), ring), (ring, IndexedSeq(LatLng(0.0, 0.0), LatLng(0.0, 0.0))),
      (ring ++ ring, ring.reverse), (IndexedSeq.fill(40)(LatLng(1.0, 1.0)), IndexedSeq.fill(33)(LatLng(1.0, 1.0))),
      (run(LatLng(0.0, 0.0), 50, 0.01, north = true), run(LatLng(0.0, 100.0), 50, 0.01, north = false)),
      (run(LatLng(89.0, 0.0), 50, 0.02, north = true), run(LatLng(-90.0, 540.0), 50, 7.0, north = false)))
    for ((a, b) <- cases) { check(a, b); check(b, a) }
  }
}
