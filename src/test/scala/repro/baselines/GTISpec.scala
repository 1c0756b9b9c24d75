package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{Geo, LatLng}

class GTISpec extends AnyFunSuite {

  /** A curved two-segment lane sampled every ~500 m. */
  private def lane(offsetM: Double = 0.0): IndexedSeq[LatLng] = {
    val wps = Seq(LatLng(55.0, 11.0), LatLng(55.3, 11.4), LatLng(55.7, 11.3))
    Geo.densify(wps, 500.0).map(p => Geo.destination(p, 90.0, offsetM)).toIndexedSeq
  }

  test("node count equals total training points") {
    val trips = Seq(lane(), lane(50.0))
    val g = GTI.build(trips, rmM = 250, rdDeg = 1e-3)
    assert(g.nodeCount == trips.map(_.size).sum)
  }

  test("consecutive edges always exist, cross edges need proximity") {
    val far = Seq(lane(), lane(5000.0)) // 5 km apart: no cross edges at rd=1e-3
    val gFar = GTI.build(far, rmM = 250, rdDeg = 1e-3)
    assert(gFar.edgeCount == 2 * far.map(_.size - 1).sum) // both directions
    val near = Seq(lane(), lane(50.0)) // 50 m apart: cross edges appear
    val gNear = GTI.build(near, rmM = 250, rdDeg = 1e-3)
    assert(gNear.edgeCount > 2 * near.map(_.size - 1).sum)
  }

  test("model size grows with rd (Table 2 trend)") {
    val trips = (0 until 6).map(i => lane(i * 40.0))
    val sizes = Seq(1e-4, 5e-4, 1e-3).map(rd =>
      GTI.build(trips, rmM = 500, rdDeg = rd).serializedSizeBytes)
    assert(sizes.zip(sizes.tail).forall { case (a, b) => a <= b }, s"sizes $sizes")
    assert(sizes.last > sizes.head, s"sizes $sizes")
  }

  test("rm caps cross-edge length even when rd is generous") {
    val trips = Seq(lane(), lane(400.0))
    val strict  = GTI.build(trips, rmM = 100, rdDeg = 1e-2)
    val relaxed = GTI.build(trips, rmM = 1000, rdDeg = 1e-2)
    assert(strict.edgeCount < relaxed.edgeCount)
  }

  test("nearestNode returns the closest training point") {
    val t = lane()
    val g = GTI.build(Seq(t), rmM = 250, rdDeg = 1e-3)
    val probe = Geo.destination(t(10), 0.0, 120.0)
    val idx = g.nearestNode(probe)
    val d = Geo.haversineM(t(idx), probe)
    assert(t.indices.forall(i => Geo.haversineM(t(i), probe) >= d - 1e-6))
  }

  test("imputation follows the sailed trajectory through a curve") {
    val t = lane()
    val g = GTI.build(Seq(t), rmM = 250, rdDeg = 1e-3)
    val p = g.impute(t(5), t(t.size - 5))
    assert(p.head == t(5) && p.last == t(t.size - 5))
    assert(p.size > 10, "expected the path to traverse intermediate points")
    // The curve's corner must be tracked, unlike a straight cut.
    val corner = LatLng(55.3, 11.4)
    assert(p.map(Geo.haversineM(_, corner)).min < 1000.0)
  }

  test("imputation between disconnected components falls back to SLI") {
    val a = lane(); val b = lane(50000.0)
    val g = GTI.build(Seq(a, b), rmM = 250, rdDeg = 1e-4)
    val p = g.impute(a(2), b(b.size - 2))
    assert(p.size == 2)
  }

  test("gap across two different trips is bridged by cross edges") {
    // Trip A covers the first half, trip B the second; they overlap mid-lane.
    val full = lane()
    val a = full.take(full.size * 2 / 3)
    val b = full.drop(full.size / 3).map(p => Geo.destination(p, 90.0, 30.0))
    val g = GTI.build(Seq(a, b.toIndexedSeq), rmM = 250, rdDeg = 1e-3)
    val p = g.impute(full.head, b.last)
    assert(p.size > 5, "expected a path stitched across trips")
  }

  test("deterministic build") {
    val trips = Seq(lane(), lane(60.0))
    val g1 = GTI.build(trips, 250, 1e-3)
    val g2 = GTI.build(trips, 250, 1e-3)
    assert(g1.serializedSizeBytes == g2.serializedSizeBytes)
    assert(g1.edgeCount == g2.edgeCount)
  }

  test("the shared A* kernel finds the reference Dijkstra's paths") {
    val trips = (0 until 4).map(i => lane(i * 45.0))
    val g = GTI.build(trips, rmM = 250, rdDeg = 1e-3)
    val rnd = new scala.util.Random(5)
    for (_ <- 1 to 300) {
      val s = rnd.nextInt(g.nodeCount); val t = rnd.nextInt(g.nodeCount)
      assert(g.shortestPath(s, t).map(_.toIndexedSeq) == ReferenceDijkstra.shortestPath(g, s, t), s"$s -> $t")
    }
  }

  test("trajectory edges are traversable in both sail directions") {
    val t = lane()
    val g = GTI.build(Seq(t), rmM = 10, rdDeg = 1e-6) // no cross edges
    assert(g.impute(t(2), t(20)).size > 2)
    assert(g.impute(t(20), t(2)).size > 2)
  }
}

class SLISpec extends AnyFunSuite {
  test("SLI returns exactly the two endpoints") {
    val a = LatLng(55, 11); val b = LatLng(56, 12)
    assert(SLI.impute(a, b) == IndexedSeq(a, b))
  }

  test("SLI densifies to the straight segment under the DTW protocol") {
    val a = LatLng(55, 11); val b = LatLng(55, 12)
    val dense = Geo.densify(SLI.impute(a, b), 250.0)
    dense.foreach(p => assert(math.abs(p.lat - 55.0) < 1e-9))
    assert(dense.size > 100)
  }

  test("degenerate zero-length gap") {
    val a = LatLng(55, 11)
    assert(SLI.impute(a, a).size == 2)
  }
}
