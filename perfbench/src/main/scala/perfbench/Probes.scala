package perfbench

import repro.core.{Measure, TraceSource}

/** Timing and counting decorators the traced run hands to `TopKSearcher`,
  * so the program is measured at its layer boundaries without changing it.
  */

/** Counts every `Measure.degree` call: the searcher's upper bounds and the
  * exact degrees that `TraceSource.degree` computes through it.
  */
final class CountingMeasure(inner: Measure) extends Measure {
  var calls = 0L
  def m: Int = inner.m
  def degree(ov: Array[Int], sa: Array[Int], sb: Array[Int]): Double = {
    calls += 1
    inner.degree(ov, sa, sb)
  }
}

/** Wraps a trace source: times exact degrees and `prefetch` batches, and
  * counts the batch entities that the wrapped store had to load.
  *
  * @param loads the wrapped store's running count of loaded entities
  *              (cache misses); constant for an in-memory store
  */
final class TracedSource(inner: TraceSource, loads: () => Long) extends TraceSource {
  var degreeNs = 0L
  var degreeCalls = 0L
  var fetchNs = 0L
  var batches = 0L
  var batchEntities = 0L
  var batchMisses = 0L

  def sp = inner.sp
  def levelCells(e: Long, level: Int): Array[Long] = inner.levelCells(e, level)
  def contains(e: Long): Boolean = inner.contains(e)
  override def baseCells(e: Long): Array[(Int, Int)] = inner.baseCells(e)
  override def sizes(e: Long): Array[Int] = inner.sizes(e)
  override def overlaps(a: Long, b: Long): Array[Int] = inner.overlaps(a, b)

  override def prefetch(es: Iterable[Long]): Unit = {
    val before = loads()
    val t0 = System.nanoTime()
    inner.prefetch(es)
    fetchNs += System.nanoTime() - t0
    batches += 1
    batchEntities += es.size
    batchMisses += loads() - before
  }

  override def degree(measure: Measure, a: Long, b: Long): Double = {
    val t0 = System.nanoTime()
    val d = inner.degree(measure, a, b)
    degreeNs += System.nanoTime() - t0
    degreeCalls += 1
    d
  }
}
