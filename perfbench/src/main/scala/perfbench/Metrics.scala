package perfbench

/** The metric names and units the benchmark reports; BENCHMARK.json lists
  * the same. Every workload reports every metric of its mode.
  */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "build_s" -> "s", "graph_mb" -> "MB",
    "query_p50_us" -> "us", "query_p99_us" -> "us", "eval_s" -> "s",
    "dtw_median_m" -> "m", "dtw_mean_m" -> "m")

  private def fields(prefix: String, fs: (String, String)*): Seq[(String, String)] =
    fs.map { case (f, u) => s"$prefix.$f" -> u }

  private val spark = Seq("stages" -> "count", "tasks" -> "count", "shuffle_mb" -> "MB")

  val perLayer: Seq[(String, String)] =
    fields("ais.SynthAIS.generate", "s" -> "s") ++
    fields("preprocess.Cleaner.clean", Seq("s" -> "s", "rows_in" -> "count", "rows_out" -> "count") ++ spark: _*) ++
    fields("preprocess.TripSegmenter.segment", Seq("s" -> "s", "rows_out" -> "count", "trips" -> "count") ++ spark: _*) ++
    fields("core.CellStats.cellTable", Seq("s" -> "s", "rows" -> "count") ++ spark: _*) ++
    fields("core.CellStats.edgeTable", Seq("s" -> "s", "rows" -> "count") ++ spark: _*) ++
    fields("core.MotionGraph.fromTables", "s" -> "s", "nodes" -> "count", "edges" -> "count", "edges_dropped" -> "count") ++
    fields("baselines.GTI.build", "s" -> "s") ++
    fields("h3.HexGrid.latLngToCell", "us_p50" -> "us") ++
    fields("core.MotionGraph.nearestNode", "us_p50" -> "us", "us_p99" -> "us", "offgraph_ratio" -> "ratio",
      "snap_cells_p99" -> "count") ++
    fields("core.AStar.shortestPath", "us_p50" -> "us", "us_p99" -> "us", "path_cells_p50" -> "count",
      "none_ratio" -> "ratio") ++
    fields("core.MotionGraph.medianLatLng", "us_p50" -> "us") ++
    fields("geo.RDP.simplify", "us_p50" -> "us", "vertices_in_p50" -> "count", "vertices_out_p50" -> "count") ++
    fields("core.Habit.impute", "fail_ratio" -> "ratio") ++
    fields("eval.DTW.pathErrorM", "us_p50" -> "us", "mcells" -> "Mcells") ++
    fields("baselines.GTI.impute", "us_p50" -> "us", "us_p99" -> "us", "path_points_p50" -> "count",
      "fail_ratio" -> "ratio", "dtw_median_m" -> "m") ++
    fields("baselines.GTI.nearestNode", "us_p50" -> "us") ++
    fields("trace", "overhead_pct" -> "%", "mismatch" -> "count")

  def complete(r: Report, trace: Boolean): Unit =
    if (trace) r.select(perLayer, zeroIfMissing = true) else r.select(endToEnd, zeroIfMissing = false)
}
