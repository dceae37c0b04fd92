package repro.layerbench

import java.lang.management.ManagementFactory
import repro.core.Ari

/** Turns a run's samples and spans into the metrics BENCHMARK.json names.
  *
  * `setups` logs the run's set-ups, whose iterations are the warm-ups and
  * the Spark workload's kernel reference; `samples` holds the timed
  * iterations.
  */
final case class Report(w: Workload, seed: Long, trace: Boolean, setups: Seq[SetupLog],
                        samples: Seq[Sample], tracer: Tracer, first: Option[(String, Array[Int])],
                        kernelPrint: Option[String], truth: Array[Int]) {
  import Report._

  private val n = w.n.toDouble
  private val setupS      = median(setups.map(_.seconds))
  private val setupChecks = setups.flatMap(_.checks)
  private val setupErrors = setupChecks.flatten
  private val completed  = samples.filter(_.fingerprint.nonEmpty)
  private val untracedS  = completed.filterNot(_.traced).map(_.wallS)
  private val tracedRuns = completed.filter(_.traced).map(_.run).toSet

  val attempted: Int = samples.length + setupChecks.length
  val failed: Int    = samples.count(_.errors.nonEmpty) + setupChecks.count(_.nonEmpty)

  /** Sample count, percentile and value of the pipeline_s tail: the
    * highest percentile with at least ten samples above it.
    */
  val tail: (Int, Double, Double) = {
    val xs = untracedS.sorted
    val i  = math.max(0, xs.length - 11)
    (xs.length, 100.0 * (i + 1) / math.max(1, xs.length), if (xs.isEmpty) Double.NaN else xs(i))
  }

  /** Per traced iteration: layer metric -> value, from its spans. */
  private val perRun: Seq[Map[String, Double]] = {
    val self = tracer.selfNs
    tracer.spans.indices.groupBy(tracer.spans(_).run).toSeq.sortBy(_._1)
      .collect { case (run, idx) if tracedRuns(run) =>
        val byName = idx.groupMapReduce(tracer.spans(_).name)(self(_) / 1e9)(_ + _)
        val root = idx.find(tracer.spans(_).parent < 0).get
        val layers = idx.filter(_ != root).groupBy(tracer.spans(_).layer)
        def util(layer: String): Double = layers.get(layer).fold(0.0) { is =>
          val wall = is.map(tracer.spans(_).durNs).sum
          is.map(tracer.spans(_).cpuNs).sum.toDouble / (wall * w.threads)
        }
        def t(name: String) = byName.getOrElse(name, 0.0)
        val counts = samples.find(_.run == run).get.counts
        val rounds = counts.getOrElse("tmfg.rounds", 0.0)
        counts ++ Map(
          "correlation.pearson_s"       -> t("correlation.pearson"),
          "correlation.dissimilarity_s" -> t("correlation.dissimilarity"),
          "correlation.cpu_util"        -> util("correlation"),
          "tmfg.build_s"                -> t("tmfg.build"),
          "tmfg.ms_per_round"           -> t("tmfg.build") * 1e3 / rounds,
          "tmfg.batch_fill"             -> (n - 4) / (rounds * w.prefix),
          "tmfg.cpu_util"               -> util("tmfg"),
          "apsp.all_pairs_s"            -> t("apsp.all_pairs"),
          "apsp.cpu_util"               -> util("apsp"),
          "bubbles.build_s"             -> t("bubbles.build"),
          "assign.s"                    -> t("assign"),
          "hierarchy.s"                 -> t("hierarchy.dendrogram"),
          "hierarchy.cut_s"             -> t("hierarchy.cut"),
          "spark.correlation_s"         -> t("spark.correlation"),
          "spark.tmfg_s"                -> t("spark.tmfg"),
          "spark.apsp_s"                -> t("spark.apsp"),
          "spark.dendrogram_s"          -> t("spark.dendrogram"),
          "trace.pipeline_s"            -> tracer.spans(root).durNs / 1e9,
          "trace.self_sum_share"        -> (idx.filter(_ != root).map(self(_)).sum.toDouble / tracer.spans(root).durNs),
        )
      }
  }

  /** Reasons the run as a whole is not correct, beyond failed iterations. */
  val runErrors: Seq[String] = Seq(
    Option.when(completed.isEmpty)("no timed iteration completed"),
    Option.when(trace && perRun.isEmpty)("no traced iteration completed"),
    Option.when(samples.map(_.fingerprint).filter(_.nonEmpty).distinct.length > 1)(
      "traced and untraced fingerprints differ"),
    perRun.map(_("trace.self_sum_share")).find(x => x < 0.95 || x > 1.0)
      .map(x => f"layer self times cover $x%.4f of the traced pipeline, outside [0.95, 1]"),
  ).flatten

  val correct: Boolean = failed == 0 && runErrors.isEmpty

  /** Each traced iteration's wall time minus the mean of its untraced
    * neighbours', so a warm-up trend across the run cancels out.
    */
  private val overheads: Seq[Double] = {
    val byRun = completed.map(s => s.run -> s).toMap
    completed.filter(_.traced).flatMap { t =>
      val nb = Seq(t.run - 1, t.run + 1).flatMap(byRun.get).filterNot(_.traced).map(_.wallS)
      Option.when(nb.nonEmpty)(t.wallS - nb.sum / nb.size)
    }
  }

  private def layerMetric(name: String): Double = median(perRun.map(_.getOrElse(name, 0.0)))

  val ari: Double = first.fold(Double.NaN)(f => Ari.ari(f._2, truth))

  val endToEnd: Seq[(String, Double, String)] = Seq(
    ("pipeline_s", median(untracedS), "s"),
    ("setup_s", setupS, "s"),
  )

  lazy val perLayer: Seq[(String, Double, String)] = {
    val jobs = median(completed.map(_.sparkJobs.toDouble))
    Seq(
      ("correlation.pearson_s", layerMetric("correlation.pearson_s"), "s"),
      ("correlation.dissimilarity_s", layerMetric("correlation.dissimilarity_s"), "s"),
      ("correlation.gmac", n * (n - 1) * w.len / 2 / 1e9, "GMAC"),
      ("correlation.cpu_util", layerMetric("correlation.cpu_util"), "ratio"),
      ("tmfg.build_s", layerMetric("tmfg.build_s"), "s"),
      ("tmfg.rounds", layerMetric("tmfg.rounds"), "count"),
      ("tmfg.ms_per_round", layerMetric("tmfg.ms_per_round"), "ms"),
      ("tmfg.batch_fill", layerMetric("tmfg.batch_fill"), "ratio"),
      ("tmfg.edge_weight", layerMetric("tmfg.edge_weight"), "sum_corr"),
      ("tmfg.cpu_util", layerMetric("tmfg.cpu_util"), "ratio"),
      ("apsp.all_pairs_s", layerMetric("apsp.all_pairs_s"), "s"),
      ("apsp.relaxations", n * 2 * (3 * n - 6), "count"),
      ("apsp.out_mb", 8 * n * n / 1e6, "MB"),
      ("apsp.cpu_util", layerMetric("apsp.cpu_util"), "ratio"),
      ("bubbles.build_s", layerMetric("bubbles.build_s"), "s"),
      ("bubbles.count", layerMetric("bubbles.count"), "count"),
      ("bubbles.converging", layerMetric("bubbles.converging"), "count"),
      ("assign.s", layerMetric("assign.s"), "s"),
      ("assign.groups", layerMetric("assign.groups"), "count"),
      ("assign.lbar_vertices", layerMetric("assign.lbar_vertices"), "count"),
      ("hierarchy.s", layerMetric("hierarchy.s"), "s"),
      ("hierarchy.max_group", layerMetric("hierarchy.max_group"), "count"),
      ("hierarchy.cut_s", layerMetric("hierarchy.cut_s"), "s"),
      ("quality.ari", ari, "ratio"),
      ("par.threads", w.threads.toDouble, "count"),
      ("jvm.setup_cold_s", setups.head.seconds, "s"),
      ("jvm.gc_s", median(completed.map(_.gcS)), "s"),
      ("jvm.gc_count", median(completed.map(_.gcCount.toDouble)), "count"),
      ("jvm.alloc_mb", median(completed.map(_.allocMb)), "MB"),
      ("jvm.old_gen_peak_mb", median(completed.map(_.oldGenPeakMb)), "MB"),
      ("jvm.heap_peak_mb", median(completed.map(_.heapPeakMb)), "MB"),
      ("spark.jobs", jobs, "count"),
      ("spark.stages", median(completed.map(_.sparkStages.toDouble)), "count"),
      ("spark.tasks", median(completed.map(_.sparkTasks.toDouble)), "count"),
      ("spark.correlation_s", layerMetric("spark.correlation_s"), "s"),
      ("spark.tmfg_s", layerMetric("spark.tmfg_s"), "s"),
      ("spark.apsp_s", layerMetric("spark.apsp_s"), "s"),
      ("spark.dendrogram_s", layerMetric("spark.dendrogram_s"), "s"),
      ("spark.ms_per_job", if (jobs == 0) 0.0 else median(completed.map(s => s.wallS * 1e3 / s.sparkJobs)), "ms"),
      ("trace.pipeline_s", layerMetric("trace.pipeline_s"), "s"),
      ("trace.overhead_s", median(overheads), "s"),
      ("trace.self_sum_share", layerMetric("trace.self_sum_share"), "ratio"),
      ("error_rate", failed.toDouble / attempted, "ratio"),
    )
  }

  private def metrics = if (trace) perLayer else endToEnd

  /** The result object: the last line of standard output. */
  def resultJson: String = Json.write(Json.RawObj(Seq(
    "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
    "metrics" -> Json.RawObj(metrics.map { case (k, v, u) => k -> Json.RawObj(Seq("value" -> v, "unit" -> u)) }),
  )))

  /** Human-readable lines printed before the result object. */
  def summary: Seq[String] = Seq(
    s"workload ${w.name} seed $seed trace ${if (trace) 1 else 0}: ${samples.length} timed iterations, " +
      f"$attempted attempted, $failed failed, set-ups ${setups.map(x => f"${x.seconds}%.3f").mkString(", ")} s",
    s"fingerprint (labels + dendrogram) ${first.fold("none")(_._1)}" +
      kernelPrint.fold("")(k => s", kernel reference $k"),
    if (tail._1 > 10) f"pipeline_s_tail ${tail._3}%.6g s: p${tail._2}%.1f of ${tail._1} untraced samples"
    else s"pipeline_s_tail not defined: ${tail._1} untraced samples, a percentile with ten beyond it needs 11",
  ) ++ (setupErrors ++ runErrors).map("error: " + _) ++
    // a traced run also prints the end-to-end metrics of its untraced iterations
    (if (trace) endToEnd ++ perLayer else endToEnd).map { case (k, v, u) => f"  $k%-28s $v%.6g $u" }

  /** Everything the run measured, spans included, for the record file. */
  def recordJson: String = {
    val rt = ManagementFactory.getRuntimeMXBean
    Json.write(Json.RawObj(Seq(
      "workload" -> w.name, "seed" -> seed, "trace" -> trace, "correct" -> correct, "setup_s" -> setupS,
      "setups" -> setups.map(x => Json.RawObj(Seq("seconds" -> x.seconds, "phases_s" -> Json.RawObj(x.phases)))),
      "attempted" -> attempted, "failed" -> failed,
      "fingerprint" -> first.fold("")(_._1), "kernel_fingerprint" -> kernelPrint.getOrElse(""),
      "errors" -> (setupErrors ++ runErrors ++ samples.flatMap(_.errors)),
      "tail" -> Json.RawObj(Seq("samples" -> tail._1, "percentile" -> tail._2, "value_s" -> tail._3)),
      "machine" -> Json.RawObj(Seq(
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
        "jvm" -> s"${rt.getVmName} ${rt.getVmVersion}",
        "jvm_args" -> rt.getInputArguments.toArray.map(_.toString).toSeq)),
      "end_to_end" -> Json.RawObj(endToEnd.map { case (k, v, _) => k -> v }),
      "per_layer" -> Json.RawObj(if (trace) perLayer.map { case (k, v, _) => k -> v } else Nil),
      "samples" -> samples.map(s => Json.RawObj(Seq(
        "wall_s" -> s.wallS, "traced" -> s.traced,
        "fingerprint" -> s.fingerprint, "errors" -> s.errors, "old_gen_peak_mb" -> s.oldGenPeakMb, "heap_peak_mb" -> s.heapPeakMb,
        "gc_s" -> s.gcS, "gc_count" -> s.gcCount, "alloc_mb" -> s.allocMb,
        "spark_jobs" -> s.sparkJobs, "spark_stages" -> s.sparkStages, "spark_tasks" -> s.sparkTasks))),
      "spans" -> tracer.spans.toSeq.map(s => Json.RawObj(Seq(
        "name" -> s.name, "start_ns" -> s.start, "end_ns" -> s.end, "parent" -> s.parent,
        "run" -> s.run, "cpu_ns" -> s.cpuNs))),
    )))
  }
}

object Report {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}

/** Just enough JSON writing for the result line and the record file. */
object Json {
  final case class RawObj(fields: Seq[(String, Any)])

  def write(v: Any): String = v match {
    case RawObj(fs) => fs.map { case (k, x) => quote(k) + ":" + write(x) }.mkString("{", ",", "}")
    case s: String  => quote(s)
    case b: Boolean => b.toString
    case d: Double  => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i: Int     => i.toString
    case l: Long    => l.toString
    case xs: Seq[_] => xs.map(write).mkString("[", ",", "]")
    case other      => quote(other.toString)
  }

  private def quote(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    }.mkString("\"", "", "\"")
}
