package repro.layerbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{Ari, Par}
import repro.data.TimeSeriesGen
import scala.collection.mutable.ArrayBuffer

/** One benchmark workload: a generated series set and the pipeline
  * settings it runs with. `seed` on the command line picks the series.
  * Each set-up warms the JIT with `warmups` iterations on `warmN` series
  * of the same kind; in a traced run the last warm-up is traced.
  */
final case class Workload(name: String, n: Int, len: Int, classes: Int, noise: Double,
                          prefix: Int, threads: Int, spark: Boolean, warmN: Int, warmups: Int)

object Workload {
  // Why each workload exists is recorded in BENCHMARK.json.
  val all: Seq[Workload] = Seq(
    Workload("crop5k-p1",  5000,   46, 24, 1.1, prefix = 1,  threads = 4, spark = false, warmN = 1000, warmups = 3),
    Workload("crop5k-p50", 5000,   46, 24, 1.1, prefix = 50, threads = 4, spark = false, warmN = 1000, warmups = 3),
    Workload("handout-1t", 1370, 2709,  2, 1.8, prefix = 10, threads = 1, spark = false, warmN = 400, warmups = 3),
    // Spark's own code needs several full-size iterations before its speed
    // settles; the run's five set-ups give it five.
    Workload("spark-handout400-p10", 400, 512, 2, 1.8, prefix = 10, threads = 4, spark = true, warmN = 400, warmups = 1),
  )
}

/** Measurements of one pipeline iteration. */
final case class Sample(run: Int, wallS: Double, traced: Boolean, errors: Seq[String], fingerprint: String,
                        oldGenPeakMb: Double, heapPeakMb: Double, gcS: Double, gcCount: Long, allocMb: Double,
                        sparkJobs: Long, sparkStages: Long, sparkTasks: Long,
                        counts: Map[String, Double])

/** What a set-up took: its seconds, the seconds from its start to the end
  * of each phase, and the failed checks of each of its iterations.
  */
final case class SetupLog(seconds: Double, phases: Seq[(String, Double)], checks: Seq[Seq[String]])

/** Everything a run needs before its first timed iteration. */
final case class Setup(data: Array[Array[Double]], truth: Array[Int], spark: Option[SparkSession],
                       counter: Option[SparkCounter], kernelRef: Option[Outcome], log: SetupLog)

/** Times the PAR-TDBHT pipeline from raw series to labels in a warm JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file> --work <dir>
  * }}}
  *
  * The run sets up `Main.setups` times: it generates the series, starts the
  * SparkSession (Spark workload only), computes the kernel reference and
  * warms up. The first set-up is timed from process start, so it includes
  * JVM start and the JIT's first compilations; later ones restart the
  * session and redo the rest. `setup_s` is their median. Iterations then
  * run back to back until `--seconds` have passed and at least
  * `minIterations` have run; every one is checked.
  * With `--trace 1` untraced and traced iterations alternate, so the
  * tracing overhead is measured in the same process. The last line of
  * standard output is the result object; the full record, spans included,
  * goes to `--out`.
  */
object Main {

  val setups = 5
  val minIterations = 3

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = args.getOrElse(k, sys.error(s"missing --$k"))
    val w = Workload.all.find(_.name == arg("workload"))
      .getOrElse(sys.error(s"unknown workload ${arg("workload")}; known: ${Workload.all.map(_.name).mkString(", ")}"))
    val seed    = arg("seed").toLong
    val seconds = arg("seconds").toDouble
    val trace   = arg("trace") == "1"
    val work    = Paths.get(arg("work"))
    val k       = w.classes
    val par      = new Par(w.threads)
    val untraced = new Tracer(false)
    val tracer   = new Tracer(true)

    def pipeline(spark: Option[SparkSession], d: Array[Array[Double]], tr: Tracer): Outcome = spark match {
      case Some(ss) if tr.enabled => Pipelines.sparkTraced(ss, d, w.prefix, k, tr)
      case Some(ss)               => Pipelines.sparkRun(ss, d, w.prefix, k)
      case None                   => Pipelines.kernel(d, w.prefix, k, par, tr)
    }

    def setUp(previous: Option[Setup]): Setup = {
      previous.flatMap(_.spark).foreach(_.stop())
      // a later set-up starts from a collected heap, as the first one does
      if (previous.nonEmpty) System.gc()
      val t0 = if (previous.isEmpty) System.nanoTime() - ManagementFactory.getRuntimeMXBean.getUptime * 1000000L
               else System.nanoTime()
      val phases = new ArrayBuffer[(String, Double)]()
      def mark(phase: String): Unit = phases += phase -> (System.nanoTime() - t0) / 1e9
      if (previous.isEmpty) mark("main")
      val ds = TimeSeriesGen.make(w.name, w.n, w.len, w.classes, w.noise, seed)
      val warmData = TimeSeriesGen.make(w.name, w.warmN, w.len, w.classes, w.noise, seed).data
      mark("data")
      val spark = Option.when(w.spark) {
        SparkSession.builder()
          .master(s"local[${w.threads}]")
          .appName("layerbench")
          .config("spark.ui.enabled", "false")
          .config("spark.driver.host", "127.0.0.1")
          .config("spark.local.dir", work.resolve("spark-local").toString)
          .config("spark.sql.warehouse.dir", work.resolve("spark-warehouse").toString)
          .getOrCreate()
      }
      val counter = spark.map(new SparkCounter(_))
      mark("session")
      // On the Spark workload the kernel pipeline on the same input is the
      // reference its labels must equal.
      val kernelRef = Option.when(w.spark)(Pipelines.kernel(ds.data, w.prefix, k, par, untraced))
      mark("kernel_reference")
      val warm = (1 to w.warmups).map { i =>
        pipeline(spark, warmData, if (trace && i == w.warmups) new Tracer(true) else untraced)
      }
      mark("warmup")
      val checks = kernelRef.toSeq.map(Pipelines.check(_, w.n, k)) ++ warm.map(Pipelines.check(_, w.warmN, k))
      Setup(ds.data, ds.labels, spark, counter, kernelRef, SetupLog((System.nanoTime() - t0) / 1e9, phases.toSeq, checks))
    }

    val (st, setupLog) = {
      val all = (1 until setups).scanLeft(setUp(None))((prev, _) => setUp(Some(prev)))
      (all.last, all.map(_.log))
    }
    import st.{counter, data, kernelRef, spark}

    val samples = new ArrayBuffer[Sample]()
    var first: Option[(String, Array[Int])] = None // fingerprint and labels of the first iteration

    def iterate(traced: Boolean): Unit = {
      val tr = if (traced) tracer else untraced
      val id = samples.length
      JvmProbe.resetPeaks()
      counter.foreach(_.take())
      val gc0 = JvmProbe.gcMillis; val gcN0 = JvmProbe.gcCount; val a0 = JvmProbe.allocatedBytes
      val t0 = System.nanoTime()
      val out = try Right(tr.run(id)(pipeline(spark, data, tr))) catch { case e: Exception => Left(e) }
      val wall = (System.nanoTime() - t0) / 1e9
      val (oldPeak, peak) = (JvmProbe.oldGenPeakMb, JvmProbe.heapPeakMb)
      val gcS = (JvmProbe.gcMillis - gc0) / 1e3; val gcN = JvmProbe.gcCount - gcN0
      val allocMb = (JvmProbe.allocatedBytes - a0) / 1e6
      val (jobs, stages, tasks) = counter.map(_.take()).getOrElse((0L, 0L, 0L))
      val s = out match {
        case Left(e) =>
          Sample(id, wall, traced, Seq(s"threw $e"), "", oldPeak, peak, gcS, gcN, allocMb, jobs, stages, tasks, Map.empty)
        case Right(o) =>
          val fp = Pipelines.fingerprint(o)
          val errs = Pipelines.check(o, w.n, k) ++
            first.filter(_._1 != fp).map(r => s"fingerprint $fp differs from the run's first, ${r._1}") ++
            kernelRef.filter(!_.labels.sameElements(o.labels)).map(_ => "Spark labels differ from the kernel labels")
          if (first.isEmpty) first = Some((fp, o.labels))
          Sample(id, wall, traced, errs, fp, oldPeak, peak, gcS, gcN, allocMb, jobs, stages, tasks,
            o.detail.filter(_ => traced).map(Pipelines.counts(_, w.n)).getOrElse(Map.empty))
      }
      if (s.errors.nonEmpty) Console.err.println(s"iteration $id failed: ${s.errors.mkString("; ")}")
      samples += s
    }

    // At least three iterations, so that the median outvotes one disturbed
    // iteration and a traced run has untraced and traced ones.
    val loopStart = System.nanoTime()
    while ((System.nanoTime() - loopStart) / 1e9 < seconds || samples.length < minIterations)
      iterate(traced = trace && samples.length % 2 == 1)
    spark.foreach(_.stop())
    par.close()

    val report = Report(w, seed, trace, setupLog, samples.toSeq, tracer, first,
      kernelRef.map(Pipelines.fingerprint), st.truth)
    Files.write(Paths.get(arg("out")), report.recordJson.getBytes(StandardCharsets.UTF_8))
    report.summary.foreach(println)
    println(report.resultJson)
    System.exit(0)
  }
}
