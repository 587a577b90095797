package perfbench

import java.io.File
import java.util.SplittableRandom

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.baseline.BruteForce
import repro.core._
import repro.spindex.SpIndex
import repro.storage.CachedTraceStore

/** One benchmark run: inputs, repeated set-up, warm-up, a timed closed
  * loop of single-threaded queries checked against brute force, then the
  * re-index rounds. An untraced run reports the end-to-end metrics; a
  * traced run reports the per-layer ones.
  */
object Runner {

  val Nh = 256
  /** `Harness.build`'s default hasher seed. */
  val HasherSeed = 17L
  val Ks = Seq(1, 10, 50)
  val SetupReps = 3
  /** Queries the untraced loop times at k = 1; half as many at 10 and 50. */
  val Panel = 64
  /** Calibration samples taken right before and right after each set-up. */
  val SetupCalibrationSamples = 8
  val WarmupSeconds = 3.0
  /** Re-indexes the untraced loop runs after each query, on a spare index. */
  val UpdatesPerQuery = 40
  /** Share of the entities the paged store holds, and the device it
    * charges per miss batch and per missed entity (see README).
    */
  val PagedFraction = 0.25
  val SeekMicros = 10L
  val PerEntityMicros = 1L
  /** Queries whose bound the traced run replays before churn; the first
    * is replayed again after it.
    */
  val ReplayQueries = 3
  /** Queries whose k = 10 PE the traced run compares across churn. */
  val PeProbes = 6
  val PeK = 10

  final case class Config(
      workload: Workload,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      entities: Int,
      workDir: File,
  )

  final case class Outcome(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric], env: Map[String, Any])

  /** A searcher-ready index. `source` answers the searcher; `store` is the
    * in-memory reference that brute force scans. `loads` counts the
    * entities `source` has read from its records.
    */
  final class Built(
      val store: TraceStore,
      val hasher: AdditiveHasher,
      val tree: MinSigTree,
      val source: TraceSource,
      val loads: () => Long,
      val sigs: Map[Long, Array[Int]],
  )

  private def now: Long = System.nanoTime()
  private def ms(ns: Long): Double = ns / 1e6
  private def secs(ns: Long): Double = ns / 1e9

  /** Exactness bookkeeping over every checked search: hits must equal
    * brute force's in entities, degrees and tie order.
    */
  final class Tally {
    var attempted = 0L
    var failed = 0L
    /** Failures whose degrees all match: only the order of tied entities differs. */
    var tieOrderOnly = 0L
    def check(r: TopKResult, expected: Seq[(Long, Double)], k: Int): Unit = {
      attempted += 1
      val want = expected.take(k)
      if (r.hits != want) {
        failed += 1
        if (r.hits.map(_._2) == want.map(_._2)) tieOrderOnly += 1
      }
    }
  }

  /** What both kinds of run share once the index is built. `spare` is an
    * identical index from an earlier set-up, which the untraced run writes.
    */
  final class Session(
      val cfg: Config,
      val sp: SpIndex,
      val built: Built,
      val spare: Built,
      val queries: IndexedSeq[Long],
      val tally: Tally,
      val env: mutable.Map[String, Any],
  ) {
    val measure: Measure = AdmMeasure(sp.m, 1, 1)
    val searcher = new TopKSearcher(built.tree, built.source, built.hasher, measure)
    def truth(q: Long): Seq[(Long, Double)] = BruteForce.topK(built.store, measure, q, Ks.max)
    def deadline: Long = now + (cfg.seconds * 1e9).toLong

    def churnState(index: Built, keepSigs: Boolean): Churn.State = new Churn.State(
      sp, index.hasher, index.tree, mutable.HashMap(index.store.data.toSeq: _*),
      if (keepSigs) Some(mutable.HashMap(index.sigs.toSeq: _*)) else None)

    def churnPlan(state: Churn.State, keep: Set[Long], round: Int): Seq[Churn.Op] =
      state.plan(keep, Inputs.Horizon, new SplittableRandom(cfg.seed * 31 + round))
  }

  def run(spark: SparkSession, cfg: Config): Outcome = {
    val timeline = mutable.LinkedHashMap.empty[String, Double]
    var mark = now
    def lap(phase: String): Unit = { val t = now; timeline(phase) = secs(t - mark); mark = t }

    // Inputs: generation is input preparation, outside every set-up clock.
    val (sp, cells, genSeconds) = Inputs.cells(spark, cfg.entities, cfg.seed)
    val nCells = cells.count()
    lap("inputs")

    // Set-up, repeated; the last index answers the queries and the first
    // is kept as the untraced run's spare for re-indexing. Calibration
    // samples on either side of each set-up give that set-up's host speed.
    val phases = mutable.ArrayBuffer.empty[Array[Double]]
    val setupCalMs = mutable.ArrayBuffer.empty[Double]
    var built, spare: Built = null
    Calibration.samplesMs(2 * SetupCalibrationSamples) // JIT warm-up
    (1 to SetupReps).foreach { rep =>
      built = null
      System.gc()
      val before = Calibration.samplesMs(SetupCalibrationSamples)
      val (b, p) = setup(spark, sp, cells, cfg, rep)
      val after = Calibration.samplesMs(SetupCalibrationSamples)
      setupCalMs += Stats.hd(before ++ after, 50)
      if (rep == 1 && !cfg.trace) spare = b
      built = b
      phases += p
    }
    cells.unpersist()
    lap("setup")

    val env = mutable.LinkedHashMap[String, Any](
      "workload" -> cfg.workload.name, "seed" -> cfg.seed, "seconds" -> cfg.seconds, "trace" -> cfg.trace,
      "entities" -> built.store.entities.size, "cells" -> nCells,
      "setup_s_each" -> phases.map(_.sum).toSeq, "setup_calibration_ms" -> setupCalMs.toSeq)
    val s = new Session(cfg, sp, built, spare, Inputs.querySequence(built.store, cfg.seed), new Tally, env)

    // Warm-up on the second half of the query sequence, which the timed
    // loop does not reach: JIT and the tree's lazily cached pruning
    // coordinates. Its first queries come from short and median strata.
    val warmDeadline = now + (WarmupSeconds * 1e9).toLong
    var warmed = 0
    while (warmed == 0 || now < warmDeadline) {
      val half = s.queries.size / 2
      val q = s.queries(half + warmed % (s.queries.size - half))
      val truth = s.truth(q)
      Ks.foreach(k => s.tally.check(s.searcher.search(q, k), truth, k))
      warmed += 1
    }
    System.gc()
    lap("warmup")

    val metrics =
      if (cfg.trace) traced(s, genSeconds, nCells, phases.toSeq, lap)
      else untraced(s, phases.map(_.sum).toSeq.zip(setupCalMs).map { case (t, c) => t * Calibration.ReferenceMs / c }, lap)

    env("timeline_s") = timeline
    env("error_rate") = Stats.ratio(s.tally.failed, s.tally.attempted)
    env("failed_tie_order_only") = s.tally.tieOrderOnly
    Outcome(
      correct = s.tally.failed == 0 && !env.get("unsound").exists(_ != 0),
      attempted = s.tally.attempted,
      failed = s.tally.failed,
      metrics = metrics,
      env = env.toMap,
    )
  }

  /** One set-up from the materialized cells to a searcher-ready index.
    * Returns the seconds spent in rollup, signatures, tree and (paged only)
    * the record file with its warm-up. Untraced, signatures and tree are
    * one `MinSigTree.fromCells` call and count as the signature phase. A
    * traced set-up persists the signatures between the call's two halves
    * so each is timed, and keeps them for the staleness check.
    */
  private def setup(spark: SparkSession, sp: SpIndex, cells: DataFrame, cfg: Config, rep: Int): (Built, Array[Double]) = {
    val t0 = now
    val store = TraceStore.fromCells(spark, cells, sp)
    val t1 = now
    val hasher = new AdditiveHasher(sp, Nh, HasherSeed)
    var sigs = Map.empty[Long, Array[Int]]
    var t2, t3 = 0L
    val tree =
      if (cfg.trace) {
        val ds = Signatures.compute(spark, cells, sp, hasher).persist()
        ds.count()
        t2 = now
        val tree = MinSigTree.fromSignatures(ds, sp, Nh)
        t3 = now
        sigs = ds.collect().map(es => es.entity -> es.sig).toMap
        ds.unpersist()
        tree
      } else {
        val tree = MinSigTree.fromCells(spark, cells, sp, hasher)
        t2 = now
        t3 = t2
        tree
      }
    val r0 = now
    val (source, loads) =
      if (!cfg.workload.paged) (store, () => 0L)
      else {
        val file = new File(cfg.workDir, s"records-$rep")
        val capacity = math.max(1, (store.entities.size * PagedFraction).toInt)
        val paged = CachedTraceStore.create(spark, cells, sp, file.getPath, capacity, SeekMicros, PerEntityMicros)
        // Warm the cache with a random resident sample, as Fig 5 does.
        val rng = new SplittableRandom(cfg.seed)
        paged.prefetch(store.entities.toSeq.sorted.filter(_ => rng.nextDouble() < PagedFraction))
        (paged, () => paged.misses)
      }
    val r1 = now
    val phases = Array(secs(t1 - t0), secs(t2 - t1), secs(t3 - t2), secs(r1 - r0))
    (new Built(store, hasher, tree, source, loads, sigs), phases)
  }

  /** The end-to-end run, a closed loop over a fixed panel of queries: the
    * first `Panel` of the stratified sequence. Iteration i runs panel
    * query i mod `Panel` at k = 1, then brute force on it; even iterations
    * also run query (i/2) mod (`Panel`/2) at k = 10 and 50. k = 1 gets
    * twice the queries because its latency varies most from query to
    * query. The loop runs until the deadline and at least one pass, so the
    * queries measured do not depend on how fast the host or the program is.
    * Each iteration ends with a few re-indexes on the spare index, which
    * exposes them to the same stretch of time as the queries, and one
    * calibration sample. Times are reported at the calibration's reference
    * speed; `setupSeconds` already are.
    */
  private def untraced(s: Session, setupSeconds: Seq[Double], lap: String => Unit): Seq[Metric] = {
    val panel = Ks.map(k => k -> math.max(1, math.min(Panel, s.queries.size / 2) / (if (k == 1) 1 else 2))).toMap
    // Every sample of each panel query, per k.
    val searchNs = Ks.map(k => k -> Array.fill(panel(k))(mutable.ArrayBuffer.empty[Long])).toMap
    val bruteNs = Array.fill(panel(1))(mutable.ArrayBuffer.empty[Long])
    val truths = new Array[Seq[(Long, Double)]](panel(1))
    val state = s.churnState(s.spare, keepSigs = false)
    val updateUs = mutable.ArrayBuffer.empty[Double]
    val calMs = mutable.ArrayBuffer.empty[Double]
    var round = 0
    var pending = Iterator.empty[Churn.Op]
    def search(i: Int, k: Int): Unit = {
      val t0 = now
      val r = s.searcher.search(s.queries(i), k)
      searchNs(k)(i) += now - t0
      s.tally.check(r, truths(i), k)
    }
    val deadline = s.deadline
    var done = 0
    while (now < deadline || done < panel(1)) {
      val i = done % panel(1)
      val t0 = now
      val r = s.searcher.search(s.queries(i), 1)
      val t1 = now
      val truth = s.truth(s.queries(i))
      bruteNs(i) += now - t1
      searchNs(1)(i) += t1 - t0
      if (truths(i) == null) truths(i) = truth
      s.tally.check(r, truth, 1)
      if (done % 2 == 0) Ks.filter(_ > 1).foreach(k => search((done / 2) % panel(k), k))
      (1 to UpdatesPerQuery).foreach { _ =>
        if (!pending.hasNext) { round += 1; pending = s.churnPlan(state, Set.empty, round).iterator }
        updateUs += state.apply(pending.next()).totalNs / 1e3
      }
      calMs += Calibration.sampleMs()
      done += 1
    }
    lap("loop")

    val scale = Calibration.scale(calMs)
    // Each panel query's mean over its samples, in ms.
    def perQuery(xs: Array[mutable.ArrayBuffer[Long]]): Seq[Double] = xs.toSeq.map(b => ms(b.sum) / b.size)
    // p90 of query latency would need 100 queries to have ten beyond it; the
    // panel has fewer, so it is reported here only.
    s.env("samples") = Map(
      "setup_s" -> setupSeconds.size, "brute_ms" -> bruteNs.map(_.size).sum, "calibration_ms" -> calMs.size,
      "update_us" -> updateUs.size, "update_us_beyond_p90" -> Stats.beyond(updateUs.size, 90),
      "update_rounds" -> round) ++ Ks.flatMap(k => Seq(
      s"query_ms.k$k" -> searchNs(k).map(_.size).sum, s"query_ms.k$k.panel" -> panel(k)))
    s.env("calibration_ms") = Stats.hd(calMs, 50)
    s.env("query_ms_p90") = Ks.map(k => s"k$k" -> scale * Stats.hd(perQuery(searchNs(k)), 90)).toMap
    s.env("query_ms_p90_queries_beyond") = Ks.map(k => s"k$k" -> Stats.beyond(panel(k), 90)).toMap
    val raw = Ks.map(k => Metric(s"query_ms_p50.k$k", Stats.hd(perQuery(searchNs(k)), 50), "ms")) ++ Seq(
      Metric("brute_ms_p50", Stats.hd(perQuery(bruteNs), 50), "ms"),
      Metric("update_us_p50", Stats.hd(updateUs, 50), "us"),
      Metric("update_us_p90", Stats.hd(updateUs, 90), "us"),
    )
    s.env("raw") = raw.map(m => m.name -> m.value).toMap
    Seq(Metric("setup_s", Stats.pct(setupSeconds, 50), "s")) ++
      raw.map(m => m.copy(value = m.value * scale)) ++
      Seq(Metric("index_bytes", IndexWalk.shape(s.built.tree).bytes.toDouble, "B"))
  }

  /** Per-k sums over the traced searches. */
  final class KSums {
    var n, plainNs, searchNs, ctxNs, degreeNs, degreeCalls, fetchNs, batches, batchEntities, batchMisses = 0L
    var measureCalls, checked, visited, hits = 0L
    var pe = 0.0
  }

  /** The per-layer run. Each query runs at every k twice, plainly and
    * through the timing decorators, in alternating order; then brute force
    * and, separately, its degree scan. Then the bound replay, the index
    * shape, and the re-index rounds with PE and staleness around them.
    */
  private def traced(s: Session, genSeconds: Double, nCells: Long, phases: Seq[Array[Double]], lap: String => Unit): Seq[Metric] = {
    val built = s.built
    val n = built.store.entities.size
    val source = new TracedSource(built.source, built.loads)
    val counting = new CountingMeasure(s.measure)
    val searcher = new TopKSearcher(built.tree, source, built.hasher, counting)
    val sums = Ks.map(_ -> new KSums).toMap
    var bruteNs, bruteDegreeNs = 0L

    def tracedSearch(q: Long, k: Int, sum: KSums): TopKResult = {
      val c0 = now
      QueryContext(built.source, built.hasher, s.measure, q) // the context, timed by a separate call
      sum.ctxNs += now - c0
      val (d0, dc0, f0, b0, be0, bm0, m0) = (source.degreeNs, source.degreeCalls, source.fetchNs,
        source.batches, source.batchEntities, source.batchMisses, counting.calls)
      val t0 = now
      val r = searcher.search(q, k)
      sum.searchNs += now - t0
      sum.n += 1
      sum.degreeNs += source.degreeNs - d0
      sum.degreeCalls += source.degreeCalls - dc0
      sum.fetchNs += source.fetchNs - f0
      sum.batches += source.batches - b0
      sum.batchEntities += source.batchEntities - be0
      sum.batchMisses += source.batchMisses - bm0
      sum.measureCalls += counting.calls - m0
      sum.checked += r.checked
      sum.visited += r.nodesVisited
      sum.hits += r.hits.size
      sum.pe += r.pe(n)
      r
    }

    val deadline = s.deadline
    var done = 0
    while (now < deadline && done < s.queries.size / 2) {
      val q = s.queries(done)
      val results = Ks.zipWithIndex.flatMap { case (k, i) =>
        val sum = sums(k)
        def plain(): TopKResult = { val t0 = now; val r = s.searcher.search(q, k); sum.plainNs += now - t0; r }
        if ((done + i) % 2 == 0) { val a = plain(); Seq(k -> a, k -> tracedSearch(q, k, sum)) }
        else { val b = tracedSearch(q, k, sum); Seq(k -> plain(), k -> b) }
      }
      val t0 = now
      val truth = s.truth(q)
      bruteNs += now - t0
      val t1 = now
      built.store.entities.foreach(e => if (e != q) built.store.degree(s.measure, e, q))
      bruteDegreeNs += now - t1
      results.foreach { case (k, r) => s.tally.check(r, truth, k) }
      done += 1
    }
    lap("loop")

    // Bound soundness, replayed from outside.
    val replayed = s.queries.take(ReplayQueries)
    var unsound = replayed.map(q => IndexWalk.unsound(built.tree, built.store, built.hasher, s.measure, q).size).sum
    val shape = IndexWalk.shape(built.tree)
    lap("replay")

    // Churn: k = 10 PE on fixed probes before and after the rounds.
    val probes = s.queries.take(PeProbes)
    def probePe(store: TraceStore): Double = {
      val searcher = new TopKSearcher(built.tree, store, built.hasher, s.measure)
      Stats.mean(probes.map { q =>
        val r = searcher.search(q, PeK)
        s.tally.check(r, BruteForce.topK(store, s.measure, q, PeK), PeK)
        r.pe(store.entities.size)
      })
    }
    val peBefore = probePe(built.store)
    val state = s.churnState(built, keepSigs = true)
    val timings = (1 to Churn.Rounds).flatMap(round => s.churnPlan(state, probes.toSet, round).map(state.apply))
    val after = state.store
    val peAfter = probePe(after)
    unsound += IndexWalk.unsound(built.tree, after, built.hasher, s.measure, replayed.head).size
    val stale = IndexWalk.staleFraction(built.tree, state.sigs.get)
    lap("churn")

    s.env("unsound") = unsound
    s.env("replayed_queries") = replayed.size + 1
    s.env("samples") = Map("queries_per_k" -> done, "setup_reps" -> phases.size, "update_ops" -> timings.size)

    def phaseMedian(i: Int) = Stats.pct(phases.map(_(i)), 50)
    val perK = Ks.flatMap { k =>
      val sum = sums(k)
      val per = sum.n.toDouble
      val bounds = sum.measureCalls - sum.degreeCalls
      val misses = sum.batchMisses
      val hits = sum.batchEntities - misses
      Seq(
        Metric(s"query.ctx_ms.k$k", ms(sum.ctxNs) / per, "ms"),
        Metric(s"query.search_self_ms.k$k", ms(sum.searchNs - sum.ctxNs - sum.degreeNs - sum.fetchNs) / per, "ms"),
        Metric(s"query.nodes_visited.k$k", sum.visited / per, "count"),
        Metric(s"query.bounds.k$k", bounds / per, "count"),
        Metric(s"query.bounds_per_checked.k$k", Stats.ratio(bounds, sum.checked), "ratio"),
        Metric(s"query.checked.k$k", sum.checked / per, "count"),
        Metric(s"query.useful_frac.k$k", Stats.ratio(sum.hits, sum.checked), "frac"),
        Metric(s"query.pe.k$k", sum.pe / per, "frac"),
        Metric(s"degree.ms.k$k", ms(sum.degreeNs) / per, "ms"),
        Metric(s"degree.calls.k$k", sum.degreeCalls / per, "count"),
        Metric(s"degree.us_per_call.k$k", Stats.ratio(sum.degreeNs / 1e3, sum.degreeCalls), "us"),
        Metric(s"fetch.ms.k$k", ms(sum.fetchNs) / per, "ms"),
        Metric(s"fetch.hits.k$k", hits / per, "count"),
        Metric(s"fetch.misses.k$k", misses / per, "count"),
        Metric(s"fetch.hit_rate.k$k", Stats.ratio(hits, sum.batchEntities), "frac"),
        Metric(s"fetch.batches.k$k", sum.batches / per, "count"),
        Metric(s"fetch.entities_per_batch.k$k", Stats.ratio(sum.batchEntities, sum.batches), "ratio"),
      )
    }
    val leafSizes = shape.leafSizes.map(_.toDouble)
    Seq(
      Metric("gen.s", genSeconds, "s"),
      Metric("gen.cells", nCells.toDouble, "count"),
      Metric("build.rollup_s", phaseMedian(0), "s"),
      Metric("build.sig_s", phaseMedian(1), "s"),
      Metric("build.tree_s", phaseMedian(2), "s"),
      Metric("build.records_s", phaseMedian(3), "s"),
    ) ++ (1 to s.sp.m).map(l => Metric(s"tree.nodes.l$l", shape.nodes(l), "count")) ++ Seq(
      Metric("tree.leaves", shape.leaves, "count"),
      Metric("tree.singleton_leaf_frac", shape.singletonFrac, "frac"),
      Metric("tree.leaf_size.p50", Stats.pct(leafSizes, 50), "count"),
      Metric("tree.leaf_size.max", leafSizes.max, "count"),
    ) ++ (2 to s.sp.m).map(l => Metric(s"tree.fanout_mean.l$l", shape.fanout(l), "ratio")) ++ Seq(
      Metric("tree.stale_node_frac", stale, "frac"),
    ) ++ perK ++ Seq(
      Metric("brute.self_ms", ms(bruteNs - bruteDegreeNs) / done, "ms"),
      Metric("update.rollup_us", Stats.mean(timings.map(_.rollupNs / 1e3)), "us"),
      Metric("update.sig_us", Stats.mean(timings.map(_.sigNs / 1e3)), "us"),
      Metric("update.tree_us", Stats.mean(timings.map(_.treeNs / 1e3)), "us"),
      Metric("churn.pe_ratio", peAfter / math.max(peBefore, 1.0 / n), "ratio"),
      Metric("trace.overhead_frac", Stats.ratio(sums.values.map(_.searchNs).sum, sums.values.map(_.plainNs).sum) - 1, "frac"),
      Metric("error_rate", Stats.ratio(s.tally.failed, s.tally.attempted), "frac"),
    )
  }
}
