package perfbench

import java.io.File

import org.apache.spark.sql.SparkSession

/** Entry point of one benchmark run; `perfbench/run.py` builds and calls it.
  *
  * {{{
  * perfbench.Main --workload syn --seed 1 --seconds 10 --trace 0
  *                --work-dir DIR [--entities N] [--git-sha SHA] [--source-sha SHA]
  * }}}
  *
  * Prints one JSON line with the run's environment and, last, the result:
  * `{"correct", "attempted", "failed", "metrics"}`.
  */
object Main {

  /** |E| of every workload (the bench suites' `BenchData` default). */
  val DefaultEntities = 8000

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))

    val workload = Workload.named(opt("workload"))
    val seed = opt("seed").toLong
    val trace = opt("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val entities = opts.get("entities").map(_.toInt).getOrElse(DefaultEntities)
    val workDir = new File(opt("work-dir"))
    workDir.mkdirs()
    val stamp = opts.getOrElse("source-sha", "unknown")
    val cfg = Runner.Config(
      workload = workload,
      seed = seed,
      seconds = opt("seconds").toDouble,
      trace = trace,
      entities = entities,
      workDir = workDir,
    )

    val jvmStartSeconds = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val nproc = Runtime.getRuntime.availableProcessors()
    val master = s"local[$nproc]"
    val spark = SparkSession.builder
      .master(master)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", (2 * nproc).toString)
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getPath)
      .getOrCreate()
    val sparkStartSeconds = java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3 - jvmStartSeconds
    val out =
      try Runner.run(spark, cfg)
      finally spark.stop()

    val env = out.env ++ Map(
      "nproc" -> nproc,
      "spark_master" -> master,
      "spark_version" -> spark.version,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "git_sha" -> opts.getOrElse("git-sha", "unknown"),
      "source_sha256" -> stamp,
      "jvm_start_s" -> jvmStartSeconds,
      "spark_start_s" -> sparkStartSeconds,
    )
    println(Json.render(Map("env" -> env)))
    println(Json.render(collection.mutable.LinkedHashMap(
      "correct" -> out.correct,
      "attempted" -> out.attempted,
      "failed" -> out.failed,
      "metrics" -> Json.metrics(out.metrics),
    )))
    Console.out.flush()
  }
}
