package perfbench

import java.util.SplittableRandom

import scala.collection.mutable

import repro.core.{CellHasher, Cells, MinSigTree, Signatures, TraceStore}
import repro.spindex.SpIndex

/** Re-index rounds: the write path of Fig 8 at its scale (10% of the
  * entities per round), applied after the timed queries.
  */
object Churn {

  val Share = 0.10
  val Rounds = 2

  sealed trait Kind
  case object Update extends Kind
  case object Insert extends Kind
  case object Remove extends Kind

  final case class Op(kind: Kind, entity: Long, base: Array[(Int, Int)])

  /** Time of one re-index in each layer, in nanoseconds. */
  final case class Timing(rollupNs: Long, sigNs: Long, treeNs: Long) {
    def totalNs: Long = rollupNs + sigNs + treeNs
  }

  /** The live traces and index that rounds modify; `sigs` is the
    * benchmark's own copy of every indexed signature, when it keeps one.
    */
  final class State(
      val sp: SpIndex,
      val hasher: CellHasher,
      val tree: MinSigTree,
      val data: mutable.Map[Long, Array[Array[Long]]],
      val sigs: Option[mutable.Map[Long, Array[Int]]],
  ) {
    private var nextId = data.keys.max + 1

    def store: TraceStore = new TraceStore(sp, data.toMap)

    private def base(e: Long): Array[(Int, Int)] =
      data(e)(sp.m - 1).map(c => (Cells.timeOf(c), Cells.unitOf(c)))

    /** One round over `Share` of the live entities, never touching `keep`:
      * 80% updates of existing entities, 10% removals and 10% inserts of
      * new ids, in random order. A new trace is a random donor's trace
      * shifted in time (mod the horizon), so it follows the workload's own
      * trace distribution.
      */
    def plan(keep: Set[Long], horizon: Int, rng: SplittableRandom): Seq[Op] = {
      val live = data.keys.toIndexedSeq.sorted
      val n = math.max(1, (live.size * Share).toInt)
      val movable = shuffle(live.filterNot(keep), rng)
      val nRemove = n / 10
      val nInsert = n / 10
      val nUpdate = math.min(n - nRemove - nInsert, movable.size - nRemove)
      def shifted(): Array[(Int, Int)] = {
        val shift = 1 + rng.nextInt(horizon - 1)
        base(live(rng.nextInt(live.size))).map { case (t, loc) => ((t + shift) % horizon, loc) }
      }
      val updates = movable.take(nUpdate).map(e => Op(Update, e, shifted()))
      val removes = movable.slice(nUpdate, nUpdate + nRemove).map(e => Op(Remove, e, Array.empty))
      val inserts = (0 until nInsert).map { _ => nextId += 1; Op(Insert, nextId - 1, shifted()) }
      shuffle(updates ++ removes ++ inserts, rng)
    }

    /** One re-index: `Cells.rollup`, `Signatures.computeLocal` and the
      * tree write, each timed.
      */
    def apply(op: Op): Timing = op.kind match {
      case Remove =>
        val t0 = System.nanoTime()
        tree.remove(op.entity)
        val t1 = System.nanoTime()
        data -= op.entity
        sigs.foreach(_ -= op.entity)
        Timing(0, 0, t1 - t0)
      case kind =>
        val t0 = System.nanoTime()
        val rolled = Cells.rollup(op.base, sp)
        val t1 = System.nanoTime()
        val sig = Signatures.computeLocal(op.base, sp, hasher)
        val t2 = System.nanoTime()
        if (kind == Update) tree.update(op.entity, sig) else tree.insert(op.entity, sig)
        val t3 = System.nanoTime()
        data(op.entity) = rolled
        sigs.foreach(_(op.entity) = sig)
        Timing(t1 - t0, t2 - t1, t3 - t2)
    }
  }

  private def shuffle[A](xs: IndexedSeq[A], rng: SplittableRandom): IndexedSeq[A] = {
    val a = xs.toArray[Any]
    var i = a.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = a(i); a(i) = a(j); a(j) = t
      i -= 1
    }
    a.toIndexedSeq.asInstanceOf[IndexedSeq[A]]
  }
}
