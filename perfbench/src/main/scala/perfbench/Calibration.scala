package perfbench

import java.util.SplittableRandom

/** The host-speed yardstick: a fixed piece of work that runs no program
  * code, timed between the program's own work. Like an exact-degree scan,
  * it merge-intersects one sorted probe with each of 16,384 sorted `Long`
  * arrays of 16–80 elements, visited in a fixed shuffled order; unlike it,
  * its data never changes and it allocates nothing.
  *
  * The host this benchmark runs on is shared, and identical work there
  * takes 15–40% longer in some minutes than in others. End-to-end times are
  * therefore reported at a reference speed: each raw time is multiplied by
  * `ReferenceMs` over the median time of this work measured alongside it.
  */
object Calibration {

  /** The calibration time the reported figures are scaled to. */
  val ReferenceMs = 15.0

  private val Lists = 16384
  private val Universe = 4096L
  private def sortedSample(rng: SplittableRandom, n: Int): Array[Long] =
    Array.fill(n)(rng.nextLong(Universe)).distinct.sorted
  private val lists: Array[Array[Long]] = {
    val rng = new SplittableRandom(7)
    Array.fill(Lists)(sortedSample(rng, 16 + rng.nextInt(64)))
  }
  private val probe: Array[Long] = sortedSample(new SplittableRandom(11), 64)
  private val order: Array[Int] = {
    val rng = new SplittableRandom(13)
    val a = Array.tabulate(Lists)(identity)
    var i = a.length - 1
    while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a
  }
  @volatile private var sink = 0L

  /** Runs the work once and returns its wall time in milliseconds. */
  def sampleMs(): Double = {
    val t0 = System.nanoTime()
    var hits = 0L
    var n = 0
    while (n < Lists) {
      val a = lists(order(n))
      var i = 0
      var j = 0
      while (i < a.length && j < probe.length) {
        val x = a(i)
        val y = probe(j)
        if (x < y) i += 1
        else if (x > y) j += 1
        else { hits += 1; i += 1; j += 1 }
      }
      n += 1
    }
    sink = hits
    (System.nanoTime() - t0) / 1e6
  }

  def samplesMs(n: Int): Seq[Double] = Seq.fill(n)(sampleMs())

  /** Factor that turns a raw time into one at the reference speed, given
    * calibration samples taken over the same stretch of time.
    */
  def scale(samplesMs: Iterable[Double]): Double = ReferenceMs / Stats.hd(samplesMs, 50)
}
