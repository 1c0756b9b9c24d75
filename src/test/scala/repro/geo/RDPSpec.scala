package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RDPSpec extends AnyFunSuite {

  private def line(n: Int): IndexedSeq[LatLng] =
    (0 until n).map(i => LatLng(0.0, 12.0 + i * 0.01))

  test("tolerance 0 is the identity") {
    val p = line(20)
    assert(RDP.simplify(p, 0.0) == p)
  }

  test("collinear points collapse to the endpoints") {
    val s = RDP.simplify(line(50), 10.0)
    assert(s.size == 2 && s.head == line(50).head && s.last == line(50).last)
  }

  test("a sharp corner above tolerance survives") {
    val p = IndexedSeq(LatLng(0, 12), LatLng(0, 12.5), LatLng(0.5, 12.5))
    val s = RDP.simplify(p, 100.0)
    assert(s.size == 3, s"corner was dropped: $s")
  }

  test("a small wiggle below tolerance is removed") {
    val p = IndexedSeq(LatLng(0, 12), LatLng(0.0005, 12.25), LatLng(0, 12.5)) // ~55 m bump
    assert(RDP.simplify(p, 100.0).size == 2)
    assert(RDP.simplify(p, 10.0).size == 3)
  }

  test("endpoints always survive") {
    val rnd = new Random(5)
    for (_ <- 1 to 50) {
      val p = IndexedSeq.tabulate(30)(i =>
        LatLng(rnd.nextDouble() * 0.1, 12 + i * 0.01 + rnd.nextDouble() * 0.001))
      val s = RDP.simplify(p, 500.0)
      assert(s.head == p.head && s.last == p.last)
    }
  }

  test("output is a subsequence of the input") {
    val rnd = new Random(6)
    val p = IndexedSeq.tabulate(40)(i => LatLng(rnd.nextDouble() * 0.05, 12 + i * 0.005))
    val s = RDP.simplify(p, 200.0)
    val it = p.iterator
    assert(s.forall(v => it.contains(v)))
  }

  test("higher tolerance never yields more points") {
    val rnd = new Random(7)
    val p = IndexedSeq.tabulate(60)(i =>
      LatLng(math.sin(i / 5.0) * 0.02 + rnd.nextDouble() * 0.002, 12 + i * 0.004))
    val sizes = Seq(50.0, 100.0, 250.0, 500.0, 1000.0).map(t => RDP.simplify(p, t).size)
    assert(sizes.zip(sizes.tail).forall { case (a, b) => a >= b }, s"sizes $sizes")
  }

  test("max deviation of dropped points stays within tolerance") {
    val rnd = new Random(8)
    val p = IndexedSeq.tabulate(80)(i =>
      LatLng(math.sin(i / 7.0) * 0.03, 12 + i * 0.003 + rnd.nextDouble() * 0.0005))
    for (t <- Seq(100.0, 300.0, 800.0)) {
      val s = RDP.simplify(p, t)
      // Every original point must lie within t of the simplified polyline.
      val maxDev = p.map(q => s.sliding(2).map { case Seq(a, b) => Geo.pointSegmentDistM(q, a, b) }.min).max
      assert(maxDev <= t + 1.0, s"tolerance $t violated: $maxDev")
    }
  }

  test("two-point and single-point paths are returned unchanged") {
    val two = IndexedSeq(LatLng(0, 0), LatLng(1, 1))
    assert(RDP.simplify(two, 100.0) == two)
    val one = IndexedSeq(LatLng(0, 0))
    assert(RDP.simplify(one, 100.0) == one)
  }

  test("negative tolerance is rejected") {
    intercept[IllegalArgumentException](RDP.simplify(line(5), -1.0))
  }

  test("zigzag at cell scale is straightened by 100-250 m tolerances") {
    // Alternating ±80 m offsets around a straight lane, like grid-following paths.
    val p = IndexedSeq.tabulate(30)(i =>
      LatLng(if (i % 2 == 0) 0.0 else 0.00072, 12 + i * 0.01))
    val s100 = RDP.simplify(p, 100.0)
    assert(s100.size < p.size / 2)
    val s250 = RDP.simplify(p, 250.0)
    assert(s250.size == 2)
  }

  // --- the array kernel against the boxed reference ------------------------

  private def bits(p: Seq[LatLng]): Seq[(Long, Long)] =
    p.map(q => (java.lang.Double.doubleToRawLongBits(q.lat), java.lang.Double.doubleToRawLongBits(q.lon)))

  private def sameAsReference(p: IndexedSeq[LatLng]): Unit =
    for (t <- Seq(0.0, 1.0, 100.0, 250.0, 1000.0)) {
      val want = ReferenceRDP.simplify(p, t)
      assert(bits(RDP.simplify(p, t)) == bits(want), s"t=$t: $p")
      val kept = RDP.keep(p.map(_.lat).toArray, p.map(_.lon).toArray, p.size, t)
      assert(bits(p.indices.filter(kept).map(p)) == bits(want), s"t=$t mask: $p")
    }

  test("the array kernel keeps the reference's vertices on crafted polylines") {
    val a = LatLng(55.0, 11.0); val b = LatLng(55.01, 11.0); val c = LatLng(55.01, 11.01); val d = LatLng(55.0, 11.01)
    val cases = Seq(
      IndexedSeq.empty, IndexedSeq(a), IndexedSeq(a, c),              // n <= 2
      IndexedSeq(a, a, a, a),                                         // every point repeated
      IndexedSeq(a, b, c, d, a),                                      // closed loop: len2 == 0
      IndexedSeq(a, b, c, b, a, a, d),                                // repeats inside and at the ends
      IndexedSeq(a, b, c, d),                                         // rectangle: b and c tie
      IndexedSeq.tabulate(9)(i => LatLng(55.0, 11.0 + i * 0.01)),    // collinear, all at 0
      IndexedSeq.tabulate(9)(i => LatLng(55.0 + (i % 2) * 0.01, 11.0 + i * 0.01))) // zigzag ties
    cases.foreach(sameAsReference)
  }

  test("the array kernel keeps the reference's vertices on random polylines") {
    val rnd = new Random(9)
    for (trial <- 1 to 400) {
      val n = rnd.nextInt(40)
      val p =
        if (trial % 2 == 0) // few distinct points: repeats, zero-length chords and ties
          IndexedSeq.fill(n)(LatLng(55.0 + rnd.nextInt(4) * 0.002, 11.0 + rnd.nextInt(4) * 0.002))
        else IndexedSeq.tabulate(n)(i =>
          LatLng(55.0 + math.sin(i / 4.0) * 0.03 + rnd.nextGaussian() * 0.002, 11.0 + i * 0.004))
      sameAsReference(p)
    }
  }
}
