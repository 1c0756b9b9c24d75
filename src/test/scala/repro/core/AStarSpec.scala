package repro.core

import java.util.concurrent.{Callable, Executors}
import org.scalatest.funsuite.AnyFunSuite
import repro.h3.HexGrid
import scala.util.Random

/** A* unit tests on hand-built graphs. Cells are encoded directly from
  * axial coordinates, so adjacency and distances are exact by design.
  */
class AStarSpec extends AnyFunSuite {

  private val Res = 8
  private def c(q: Int, r: Int): Long = HexGrid.encode(Res, q, r)

  private def graph(edges: Seq[(Long, Long, Long)]): MotionGraph = {
    val nodes = edges.flatMap(e => Seq(e._1, e._2)).distinct.map { cell =>
      val p = HexGrid.cellCenter(cell)
      GraphNode(cell, p.lat, p.lon, 10, 2)
    }
    MotionGraph(Res, nodes, edges.map(e => GraphEdge(e._1, e._2, e._3)))
  }

  /** The full q x r axial lattice with neighbour edges of one frequency:
    * every cost ties, so only the tie order picks among the many paths.
    */
  private def lattice(side: Int): MotionGraph = graph(for {
    q <- 0 until side; r <- 0 until side
    (dq, dr) <- Seq((1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1))
    if q + dq >= 0 && q + dq < side && r + dr >= 0 && r + dr < side
  } yield (c(q, r), c(q + dq, r + dr), 2L))

  private def randomPairs(g: MotionGraph, n: Int, seed: Long): IndexedSeq[(Long, Long)] = {
    val rnd = new Random(seed)
    val cells = g.nodes.keys.toIndexedSeq.sorted
    IndexedSeq.fill(n)((cells(rnd.nextInt(cells.size)), cells(rnd.nextInt(cells.size))))
  }

  test("trivial: start equals goal") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5)))
    assert(AStar.shortestPath(g, c(0, 0), c(0, 0)) == Some(IndexedSeq(c(0, 0))))
  }

  test("straight chain is traversed end to end") {
    val chain = (0 until 5).map(i => (c(i, 0), c(i + 1, 0), 3L))
    val g = graph(chain)
    assert(AStar.shortestPath(g, c(0, 0), c(5, 0)) ==
      Some((0 to 5).map(i => c(i, 0)).toIndexedSeq))
    // Every node but the goal is expanded once.
    assert(Search.lastExpanded == 5)
  }

  test("a pair the landmarks prove unreachable is answered None without expanding a node") {
    // A 6-cycle (the largest component, so it holds the landmarks), a sink
    // it reaches and a source that reaches it.
    val cycle = Seq(c(0, 0), c(1, 0), c(2, 0), c(2, 1), c(1, 1), c(0, 1))
    val g = graph(cycle.indices.map(i => (cycle(i), cycle((i + 1) % 6), 4L)) ++
                  Seq((c(1, 0), c(5, 5), 1L), (c(6, 6), c(0, 0), 1L)))
    for ((s, t) <- Seq((c(5, 5), c(0, 0)), (c(1, 0), c(6, 6)), (c(5, 5), c(6, 6)))) {
      assert(AStar.lowerBound(g, t)(s) == Double.PositiveInfinity)
      assert(AStar.shortestPath(g, s, t).isEmpty && Search.lastExpanded == 0, s"$s -> $t")
    }
    assert(AStar.shortestPath(g, c(6, 6), c(5, 5)).get.size == 4 && Search.lastExpanded > 0)
  }

  test("shorter cell path wins over longer one") {
    // Direct 2-hop route vs a 4-hop detour.
    val g = graph(Seq(
      (c(0, 0), c(1, 0), 1), (c(1, 0), c(2, 0), 1),
      (c(0, 0), c(0, 1), 9), (c(0, 1), c(1, 1), 9), (c(1, 1), c(2, 1), 9), (c(2, 1), c(2, 0), 9)))
    assert(AStar.shortestPath(g, c(0, 0), c(2, 0)).get.size == 3)
  }

  test("among equal-length paths the more frequent one wins") {
    // (0,0) and (1,1) share two common neighbors: (1,0) and (0,1).
    val g = graph(Seq(
      (c(0, 0), c(1, 0), 100), (c(1, 0), c(1, 1), 100),
      (c(0, 0), c(0, 1), 1), (c(0, 1), c(1, 1), 1)))
    val p = AStar.shortestPath(g, c(0, 0), c(1, 1)).get
    assert(p == IndexedSeq(c(0, 0), c(1, 0), c(1, 1)))
  }

  test("unreachable goal yields None") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5)))
    assert(AStar.shortestPath(g, c(1, 0), c(0, 0)).isEmpty) // directed edge only
  }

  test("direction matters: edges are directed") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5), (c(1, 0), c(0, 0), 5)))
    assert(AStar.shortestPath(g, c(1, 0), c(0, 0)).isDefined)
  }

  test("long-jump edges cost their hex distance, not one hop") {
    // A single 4-cell jump vs four 1-cell steps with huge frequency: the
    // step path and jump path tie on hex distance, frequency breaks it.
    val jump  = Seq((c(0, 0), c(4, 0), 1L))
    val steps = (0 until 4).map(i => (c(i, 0), c(i + 1, 0), 50L))
    val p = AStar.shortestPath(graph(jump ++ steps), c(0, 0), c(4, 0)).get
    assert(p.size == 5, s"expected the frequent stepped path, got $p")
  }

  test("cycles do not trap the search") {
    val g = graph(Seq(
      (c(0, 0), c(1, 0), 5), (c(1, 0), c(0, 0), 5),
      (c(1, 0), c(2, 0), 5), (c(2, 0), c(1, 0), 5)))
    assert(AStar.shortestPath(g, c(0, 0), c(2, 0)).get.size == 3)
  }

  test("edgeCost decreases with frequency but stays above hex distance") {
    val lo = AStar.edgeCost(GraphEdge(c(0, 0), c(1, 0), 1))
    val hi = AStar.edgeCost(GraphEdge(c(0, 0), c(1, 0), 1000))
    assert(lo > hi && hi > 1.0)
    assert(AStar.edgeCost(GraphEdge(c(0, 0), c(3, 0), 1)) > 3.0)
  }

  test("search over a larger lattice finds a geodesic-length path") {
    // Full 10x10 axial lattice with unit-frequency neighbor edges.
    val edges = for {
      q <- 0 until 10; r <- 0 until 10
      (dq, dr) <- Seq((1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1))
      if q + dq >= 0 && q + dq < 10 && r + dr >= 0 && r + dr < 10
    } yield (c(q, r), c(q + dq, r + dr), 2L)
    val g = graph(edges)
    val p = AStar.shortestPath(g, c(0, 0), c(9, 9)).get
    assert(p.size - 1 == HexGrid.gridDistance(c(0, 0), c(9, 9)))
  }

  test("contract: a start or goal that is not a node gives None") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5), (c(1, 0), c(2, 0), 5)))
    assert(AStar.shortestPath(g, c(7, 7), c(2, 0)).isEmpty)
    assert(AStar.shortestPath(g, c(0, 0), c(7, 7)).isEmpty)
    assert(AStar.shortestPath(g, c(2, 0), c(2, 0)) == Some(IndexedSeq(c(2, 0))))
  }

  test("the map views give back the maps the graph was built from") {
    val edges = Seq((c(0, 0), c(2, 0), 3L), (c(0, 0), c(1, 0), 9L), (c(0, 0), c(2, 0), 1L), (c(1, 0), c(0, 0), 4L))
    val g = graph(edges)
    assert(g.nodeCount == 3 && g.edgeCount == 4)
    // Each list ordered by target; the two edges to c(2, 0) keep their order.
    assert(g.adjacency(c(0, 0)).map(e => (e.to, e.transitions)) ==
      IndexedSeq((c(2, 0), 3L), (c(1, 0), 9L), (c(2, 0), 1L)).sortBy(_._1))
    assert(!g.adjacency.contains(c(2, 0)))
    assert(g.nodes(c(1, 0)) == GraphNode(c(1, 0), g.medianLatLng(c(1, 0)).lat, g.medianLatLng(c(1, 0)).lon, 10, 2))
  }

  test("tie-heavy lattice: the same paths as the reference A*") {
    val g = lattice(12)
    for ((s, t) <- randomPairs(g, 400, 7))
      assert(AStar.shortestPath(g, s, t) == ReferenceAStar.shortestPath(g, s, t, AStar.lowerBound(g, t)), s"$s -> $t")
  }

  test("4 threads querying at once get the serial paths") {
    val pairs = randomPairs(lattice(16), 300, 8)
    val serial = pairs.map { case (s, t) => AStar.shortestPath(lattice(16), s, t) }
    // A fresh graph: the threads' first queries race to build its landmark tables.
    val g = lattice(16)
    val pool = Executors.newFixedThreadPool(4)
    try {
      val tasks = (0 until 4).map { k =>
        pool.submit(new Callable[IndexedSeq[Option[IndexedSeq[Long]]]] {
          // Each thread walks the pairs from another offset.
          def call() = pairs.indices.map { i =>
            val j = (i + k * pairs.size / 4) % pairs.size
            j -> AStar.shortestPath(g, pairs(j)._1, pairs(j)._2)
          }.sortBy(_._1).map(_._2)
        })
      }
      tasks.foreach(f => assert(f.get() == serial))
    } finally pool.shutdown()
  }

  test("nearestNode beyond 16 rings takes a node at the least hex distance") {
    val g = graph((0 until 6).map(i => (c(10 - i, i), c(i, 0), 1L)))
    val far = c(0, 40)
    val best = g.nodes.keys.map(HexGrid.gridDistance(far, _)).min
    assert(best > 16)
    val got = g.nearestNode(far).get
    assert(HexGrid.gridDistance(far, got) == best)
    assert(got == g.nodes.keysIterator.minBy(HexGrid.gridDistance(far, _)))
  }
}
