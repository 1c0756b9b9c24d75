package repro.core

import java.util.Arrays
import org.apache.spark.sql.{DataFrame, functions => F}
import repro.geo.LatLng
import repro.h3.HexGrid

/** The weighted maritime-network graph of paper §3.2, assembled from the
  * CellStats aggregates. Nodes are H3 cells carrying median position and
  * traffic counts; directed edges carry distinct-trip transition counts,
  * and their hex distance follows from the two cells.
  */
final case class GraphNode(cell: Long, medLat: Double, medLon: Double,
                           cnt: Long, vessels: Long)
final case class GraphEdge(from: Long, to: Long, transitions: Long) {
  /** Hex distance of the transition. */
  def dist: Int = HexGrid.gridDistance(from, to)
}

/** Stored as int-indexed arrays. Node `i` is the cell `ids(i)` (ids
  * sorted, so a binary search maps a cell to its index); its out-edges
  * are the CSR slots `off(i) until off(i + 1)` of `tgt` (target index),
  * `transitions`, `dist` and `cost` (the A* edge cost), ordered by target
  * index. The order is canonical: it does not depend on how the edge rows
  * arrived, so A*'s choice among equal-cost paths does not either. `dist`
  * is derived from the cells' axial coordinates with the formula of the
  * A* heuristic, so the heuristic is admissible by construction.
  */
final class MotionGraph private (val res: Int,
                                 private[core] val ids: Array[Long],
                                 private[core] val medLat: Array[Double],
                                 private[core] val medLon: Array[Double],
                                 private[core] val cnt: Array[Long],
                                 private[core] val vessels: Array[Long],
                                 private[core] val off: Array[Int],
                                 private[core] val tgt: Array[Int],
                                 private[core] val transitions: Array[Long]) extends Serializable {

  // Axial coordinates of each node, for the edge distances and the A* heuristic.
  private[core] val q: Array[Int] = ids.map(HexGrid.axialQ)
  private[core] val r: Array[Int] = ids.map(HexGrid.axialR)
  private[core] val dist: Array[Int] = {
    val d = new Array[Int](tgt.length)
    for (i <- ids.indices; k <- off(i) until off(i + 1))
      d(k) = HexGrid.axialDistance(q(tgt(k)) - q(i), r(tgt(k)) - r(i))
    d
  }
  private[core] val cost: Array[Double] =
    Array.tabulate(tgt.length)(k => AStar.edgeCost(transitions(k), dist(k)))

  /** Strongly connected component id of each node (Tarjan's numbering). */
  @transient private[core] lazy val component: Array[Int] = MotionGraph.components(off, tgt)

  /** The landmark tables of A*'s lower bound, computed on first search.
    * Like `cost`, `q` and `r` they are derived data: not serialized and
    * not counted by [[serializedSizeBytes]].
    */
  @transient private[core] lazy val landmarks: Landmarks = Landmarks(this)

  def edgeCount: Int = tgt.length
  def nodeCount: Int = ids.length

  /** Index of `cell`, or a negative number if it is not a node. */
  def indexOf(cell: Long): Int = Arrays.binarySearch(ids, cell)

  /** Read-only map views of the nodes and of the non-empty adjacency
    * lists, built on first use.
    */
  lazy val nodes: Map[Long, GraphNode] =
    ids.indices.iterator.map(i => ids(i) -> GraphNode(ids(i), medLat(i), medLon(i), cnt(i), vessels(i))).toMap
  lazy val adjacency: Map[Long, IndexedSeq[GraphEdge]] =
    ids.indices.iterator.filter(i => off(i + 1) > off(i)).map { i =>
      ids(i) -> (off(i) until off(i + 1)).map(k => GraphEdge(ids(i), ids(tgt(k)), transitions(k)))
    }.toMap

  /** Median-based coordinates of a cell (projection p = w), falling back
    * to the geometric center for cells without statistics.
    */
  def medianLatLng(cell: Long): LatLng = {
    val i = indexOf(cell)
    if (i >= 0) LatLng(medLat(i), medLon(i)) else HexGrid.cellCenter(cell)
  }

  /** Nearest graph node to `cell` (at the graph's resolution): the node at
    * the least hex distance, the smallest cell id among ties.
    */
  def nearestNode(cell: Long): Option[Long] = {
    val i = nearestIndex(cell)
    if (i < 0) None else Some(ids(i))
  }

  /** Index of the node [[nearestNode]] picks; -1 on an empty graph. A scan
    * of the axial columns outward from the query's: in column q0 + dq the
    * hex distance is |dq| over one run of rows and grows outside it, so the
    * nodes at that run's first row's insertion point and just before it
    * are the column's nearest. It keeps the least (distance, index) and
    * stops once |dq| exceeds that distance (DESIGN.md item 8).
    */
  def nearestIndex(cell: Long): Int = {
    require(HexGrid.resolution(cell) == res, s"cell $cell is not at the graph's resolution $res")
    val n = ids.length
    if (n == 0) return -1
    val q0 = HexGrid.axialQ(cell); val r0 = HexGrid.axialR(cell)
    var best = -1; var bestD = Int.MaxValue
    var dq = math.max(0, math.max(q(0) - q0, q0 - q(n - 1)))
    while (dq <= bestD && (q0 - dq >= q(0) || q0 + dq <= q(n - 1))) {
      var side = if (dq == 0) 1 else -1
      while (side <= 1) {
        val col = q0 + side * dq
        if (col >= q(0) && col <= q(n - 1)) {
          // The run's first row, clamped to the rows an id can hold.
          val lo = math.max(r0 - math.max(side * dq, 0), -HexGrid.MaxAxial)
          val at = Arrays.binarySearch(ids, HexGrid.encode(res, col, lo))
          val pos = if (at >= 0) at else -at - 1
          var j = math.max(pos - 1, 0)
          while (j <= math.min(pos, n - 1)) {
            if (q(j) == col) {
              val d = HexGrid.axialDistance(col - q0, r(j) - r0)
              if (d < bestD || (d == bestD && j < best)) { best = j; bestD = d }
            }
            j += 1
          }
        }
        side += 2
      }
      dq += 1
    }
    best
  }

  /** Serialized footprint in bytes — the Table 2 storage metric. */
  def serializedSizeBytes: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    // Serialize as flat primitive arrays: measures the information content
    // of the framework rather than JVM map overhead.
    oos.writeObject(ids); oos.writeObject(medLat)
    oos.writeObject(medLon); oos.writeObject(cnt)
    oos.writeObject(vessels)
    val from = new Array[Long](tgt.length)
    for (i <- ids.indices; k <- off(i) until off(i + 1)) from(k) = ids(i)
    oos.writeObject(from); oos.writeObject(tgt.map(ids(_)))
    oos.writeObject(transitions); oos.writeObject(dist)
    oos.close()
    bos.size().toLong
  }
}

object MotionGraph {

  /** Strongly connected components of a CSR graph: an iterative Tarjan,
    * roots and out-edges taken in index order. Component ids count from 0
    * in the order Tarjan completes them (reverse topological order).
    */
  private def components(off: Array[Int], tgt: Array[Int]): Array[Int] = {
    val n = off.length - 1
    val index = Array.fill(n)(-1); val low = new Array[Int](n)
    val comp = Array.fill(n)(-1)
    // Tarjan's stack: visited nodes not yet in a component.
    val stack = new Array[Int](n); var sp = 0
    // The depth-first call stack: a node and its next out-edge slot.
    val call = new Array[Int](n); val next = new Array[Int](n); var cp = 0
    var visited = 0; var count = 0
    def visit(v: Int): Unit = {
      index(v) = visited; low(v) = visited; visited += 1
      stack(sp) = v; sp += 1
      call(cp) = v; next(cp) = off(v); cp += 1
    }
    for (root <- 0 until n if index(root) < 0) {
      visit(root)
      while (cp > 0) {
        val u = call(cp - 1); val k = next(cp - 1)
        if (k < off(u + 1)) {
          next(cp - 1) = k + 1
          val v = tgt(k)
          if (index(v) < 0) visit(v)
          else if (comp(v) < 0) low(u) = math.min(low(u), index(v))
        } else {
          cp -= 1
          if (low(u) == index(u)) {
            var v = -1
            while (v != u) { sp -= 1; v = stack(sp); comp(v) = count }
            count += 1
          }
          if (cp > 0) low(call(cp - 1)) = math.min(low(call(cp - 1)), low(u))
        }
      }
    }
    comp
  }

  /** The graph of node and edge rows in any order: nodes sorted by cell,
    * each node's edges ordered by target (edges with the same source and
    * target keep their order). Edges whose endpoints are not nodes are
    * dropped. Every cell must be at resolution `res`.
    */
  def apply(res: Int, nodes: Seq[GraphNode], edges: Seq[GraphEdge]): MotionGraph = {
    val ns  = nodes.sortBy(_.cell).toArray
    val ids = ns.map(_.cell)
    for (i <- ids.indices) {
      require(HexGrid.resolution(ids(i)) == res, s"node ${ids(i)} is not at resolution $res")
      require(i == 0 || ids(i) != ids(i - 1), s"duplicate node ${ids(i)}")
    }
    // Each kept edge as its (source, target) index pair packed in one key;
    // a stable sort by key gives the CSR order.
    val n = ids.length.toLong
    val kept = edges.flatMap { e =>
      val (s, t) = (Arrays.binarySearch(ids, e.from), Arrays.binarySearch(ids, e.to))
      if (s >= 0 && t >= 0) Some((s * n + t, e.transitions)) else None
    }.sortBy(_._1)
    val off = new Array[Int](ids.length + 1)
    for ((key, _) <- kept) off((key / n).toInt + 1) += 1
    for (i <- ids.indices) off(i + 1) += off(i)
    new MotionGraph(res, ids, ns.map(_.medLat), ns.map(_.medLon), ns.map(_.cnt), ns.map(_.vessels),
                    off, kept.map(e => (e._1 % n).toInt).toArray, kept.map(_._2).toArray)
  }

  /** Build from segmented trips via the CellStats dataflow (distributed
    * aggregation, then collect of the small aggregate — mirrors the
    * paper's DuckDB-aggregate → NetworkX-graph split).
    */
  def build(trips: DataFrame, res: Int, exact: Boolean = false): MotionGraph = {
    fromTables(CellStats.cellTable(trips, res, exact),
               CellStats.edgeTable(trips, res, exact), res)
  }

  /** Assemble a graph from already-computed cell/edge aggregate tables.
    * Both are collected in one Spark job, a union of the node and edge
    * rows told apart by a tag, so their shuffle stages run side by side.
    */
  def fromTables(cellDf: DataFrame, edgeDf: DataFrame, res: Int): MotionGraph = {
    val nodeRows = cellDf.select(F.lit(false).as("edge"), F.col("cl").as("cell"),
      F.col("med_lat"), F.col("med_lon"), F.col("cnt"), F.col("vessels"))
    val edgeRows = edgeDf.select(F.lit(true).as("edge"), F.col("lag_cl").as("cell"), F.col("cl").as("to"),
      F.col("transitions").as("cnt"))
    val (e, n) = nodeRows.unionByName(edgeRows, allowMissingColumns = true)
      .select("edge", "cell", "to", "med_lat", "med_lon", "cnt", "vessels")
      .collect().toSeq.partition(_.getBoolean(0))
    MotionGraph(res, n.map(r => GraphNode(r.getLong(1), r.getDouble(3), r.getDouble(4), r.getLong(5), r.getLong(6))),
                e.map(r => GraphEdge(r.getLong(1), r.getLong(2), r.getLong(5))))
  }
}
