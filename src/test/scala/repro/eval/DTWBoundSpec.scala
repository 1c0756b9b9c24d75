package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{Geo, LatLng}
import scala.util.Random

/** The lower-bound pruning of [[DTW]] against the full-matrix
  * [[ReferenceDTW]]: where the pair bound is tight (so a bound a little too
  * high, or without its margins, drops a cell of the optimal warping path),
  * where it must fall back (the poles, the antimeridian, longitudes beyond
  * ±180), and on random paths over the globe.
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
}
