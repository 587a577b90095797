package repro.core

import java.util.{Comparator, PriorityQueue}

import scala.collection.mutable

import repro.spindex.SpIndex

/** Result of a top-k search.
  *
  * @param hits    up to k (entity, degree) pairs, degree desc, entity asc
  * @param checked entities whose exact degree was computed (excl. query)
  * @param nodesVisited MinSigTree nodes popped from the candidate queue
  */
final case class TopKResult(hits: Seq[(Long, Double)], checked: Int, nodesVisited: Int) {

  /** Pruning effectiveness per Definition 5.1: (|E'|-k)/|E| — lower is
    * better (fewer entities checked beyond the k answers).
    */
  def pe(nEntities: Int): Double =
    math.max(0, checked - hits.size).toDouble / nEntities
}

/** Per-query state of the search: the query's per-level cells, their
  * per-level hashes as sorted runs, and the mask-based partial-pruned-set
  * upper bound of Theorem 4.1 / §4.1.
  *
  * Soundness of the pruning rule (see also Theorems 3.1/3.2): at a node N
  * of level `j` with routing index `r` and stored value `V = min over
  * members of sig_p^j[r]`, a level-`l` query cell `c` with `l ≥ j` and
  * `h_r^l(c) < V` cannot be in any member's `seq_p^l` — membership would
  * force `sig_p^l[r] ≤ h_r^l(c)` and thus (Theorem 3.1)
  * `sig_p^j[r] ≤ h_r^l(c) < V ≤ sig_p^j[r]`, a contradiction. Levels
  * `l < j` are left untouched (a coarse overlap can exist through base
  * cells outside the query's trace), matching the paper's Example 4.1
  * where the level-1 term of UB_N12 stays at the parent's value.
  *
  * The artificial entity e_v of Theorem 4.1 then has per-level overlaps
  * equal to the surviving-cell counts, and
  * `UB_N = degree(ov = surv, sa = surv, sb = |seq_q|)`.
  *
  * Kernel. A mask is one `Array[Long]` of packed bits: bit `i` of words
  * `wordOff(l-1) until wordOff(l)` is set while the query's `i`-th level-`l`
  * cell survives. `runs(l-1)` holds one run per hash function `u`, the
  * longs `(h_u^l(c_i) << 32) | i` over the query's level-`l` cells, sorted.
  * The cells a coordinate `(u, V)` prunes are exactly the prefix of run `u`
  * below `V << 32`, so a prune walks that prefix: its cost is the
  * (cell, coordinate) pairs it prunes, not the surviving cells times the
  * coordinates. A context is used by one search at a time.
  */
final class QueryContext(
    val sp: SpIndex,
    val hasher: CellHasher,
    val measure: Measure,
    val qLevel: Array[Array[Long]], // (l-1) -> sorted distinct level-l cells
) {
  val qSizes: Array[Int] = qLevel.map(_.length)

  private val wordOff: Array[Int] = qSizes.scanLeft(0)((off, n) => off + (n + 63) / 64)

  /** Length of a mask in words: ⌈|q^l|/64⌉ summed over the levels. */
  val words: Int = wordOff(sp.m)

  private val runs: Array[Array[Long]] = Array.tabulate(sp.m) { li =>
    val cells = qLevel(li)
    val n = cells.length
    val run = new Array[Long](hasher.nh * n)
    var i = 0
    while (i < n) {
      val t = Cells.timeOf(cells(i))
      val unit = Cells.unitOf(cells(i))
      var u = 0
      while (u < hasher.nh) {
        run(u * n + i) = (hasher.unit(u, li + 1, t, unit).toLong << 32) | i
        u += 1
      }
      i += 1
    }
    var u = 0
    while (u < hasher.nh) { java.util.Arrays.sort(run, u * n, (u + 1) * n); u += 1 }
    run
  }

  private val surv = new Array[Int](sp.m)

  /** The root's mask: every query cell alive. */
  def fullMask(): Array[Long] = {
    val mask = new Array[Long](words)
    var li = 0
    while (li < sp.m) {
      var i = 0
      while (i < qSizes(li)) { mask(wordOff(li) + (i >>> 6)) |= 1L << i; i += 1 }
      li += 1
    }
    mask
  }

  /** Writes into `dst` the mask of a level-`level` node from its parent's
    * mask: levels below the node's are copied, levels ≥ are pruned. A cell
    * is pruned when ANY of the node's coordinates certifies absence
    * (Theorem 3.2 over each coordinate); `coords` is the node's flattened
    * (u, value) pair list. A level stops walking once none of its cells
    * survive.
    */
  def prune(parent: Array[Long], dst: Array[Long], level: Int, coords: Array[Int]): Unit = {
    System.arraycopy(parent, 0, dst, 0, words)
    var li = level - 1
    while (li < sp.m) {
      val n = qSizes(li)
      val off = wordOff(li)
      val run = runs(li)
      var alive = popCount(dst, li)
      var i = 0
      while (alive > 0 && i < coords.length) {
        val limit = coords(i + 1).toLong << 32
        var p = coords(i) * n
        val end = p + n
        while (p < end && run(p) < limit) {
          val c = run(p).toInt
          val w = off + (c >>> 6)
          alive -= (dst(w) >>> c).toInt & 1
          dst(w) &= ~(1L << c)
          p += 1
        }
        i += 2
      }
      li += 1
    }
  }

  /** Theorem 4.1's bound for a mask: the per-level surviving-cell counts
    * as the artificial entity's overlaps and sizes.
    */
  def bound(mask: Array[Long]): Double = {
    var li = 0
    while (li < sp.m) { surv(li) = popCount(mask, li); li += 1 }
    measure.degree(surv, surv, qSizes)
  }

  private def popCount(mask: Array[Long], li: Int): Int = {
    var n = 0
    var w = wordOff(li)
    while (w < wordOff(li + 1)) { n += java.lang.Long.bitCount(mask(w)); w += 1 }
    n
  }

  // Boolean-mask views of the same kernel, one Array[Boolean] per level,
  // for callers that walk the tree from outside (bound audits).

  def freshMasks(): Array[Array[Boolean]] = unpack(fullMask())

  /** The mask of `node` from its parent's, pruned with its `topCoords`
    * largest signature coordinates.
    */
  def pruneMasks(parent: Array[Array[Boolean]], node: SigNode, topCoords: Int): Array[Array[Boolean]] = {
    val dst = new Array[Long](words)
    prune(pack(parent), dst, node.level, node.topCoords(topCoords))
    unpack(dst)
  }

  def upperBound(masks: Array[Array[Boolean]]): Double = bound(pack(masks))

  private def pack(masks: Array[Array[Boolean]]): Array[Long] = {
    val mask = new Array[Long](words)
    for (li <- 0 until sp.m; i <- masks(li).indices if masks(li)(i))
      mask(wordOff(li) + (i >>> 6)) |= 1L << i
    mask
  }

  private def unpack(mask: Array[Long]): Array[Array[Boolean]] =
    Array.tabulate(sp.m)(li => Array.tabulate(qSizes(li))(i => (mask(wordOff(li) + (i >>> 6)) & (1L << i)) != 0L))
}

object QueryContext {
  def apply(store: TraceSource, hasher: CellHasher, measure: Measure, q: Long): QueryContext = {
    val sp = store.sp
    new QueryContext(sp, hasher, measure, Array.tabulate(sp.m)(li => store.levelCells(q, li + 1)))
  }
}

/** Best-first top-k search over the MinSigTree (Algorithm 2, §4.2). */
final class TopKSearcher(
    val tree: MinSigTree,
    val store: TraceSource,
    val hasher: CellHasher,
    val measure: Measure,
) {

  /** Exact top-k associated entities to `q` (q excluded from results):
    * the same pairs, in the same order, as [[repro.baseline.BruteForce.topK]].
    */
  def search(q: Long, k: Int): TopKResult = {
    require(store.contains(q), s"query entity $q has no trace")
    require(k >= 1)
    val ctx = QueryContext(store, hasher, measure, q)

    final class Cand(val node: SigNode, val mask: Array[Long], val ub: Double)

    // Result: weakest of the current top-k on top, so eviction is O(log k);
    // ties broken by entity id for determinism.
    implicit val weakestFirst: Ordering[(Long, Double)] =
      Ordering.by[(Long, Double), (Double, Long)] { case (e, d) => (-d, e) }
    val result = mutable.PriorityQueue.empty[(Long, Double)]
    def kthDegree: Double = if (result.size < k) -1.0 else result.head._2

    val cands = new PriorityQueue[Cand](new Comparator[Cand] {
      def compare(a: Cand, b: Cand): Int = java.lang.Double.compare(b.ub, a.ub)
    })
    cands.add(new Cand(tree.root, ctx.fullMask(), 1.0))
    val scratch = new Array[Long](ctx.words)
    var checked = 0
    var visited = 0

    while (!cands.isEmpty) {
      val cand = cands.poll()
      visited += 1
      // Early termination (Lines 4-5): the k-th best exact degree already
      // beats every remaining upper bound. A bound equal to it may still
      // hide a tied entity with a smaller id, which ranks first.
      if (kthDegree > cand.ub)
        return finish(result, checked, visited)
      val node = cand.node
      if (node.isLeaf) {
        store.prefetch(node.entities.filter(_ != q))
        node.entities.foreach { e =>
          if (e != q) {
            val d = store.degree(measure, e, q)
            checked += 1
            if (result.size < k) result.enqueue((e, d))
            else if (d > kthDegree || (d == kthDegree && e < result.head._1)) {
              result.dequeue(); result.enqueue((e, d))
            }
          }
        }
      } else {
        node.children.valuesIterator.foreach { child =>
          ctx.prune(cand.mask, scratch, child.level, child.topCoords(tree.pruneCoords))
          val ub = math.min(cand.ub, ctx.bound(scratch))
          if (ub >= kthDegree)
            cands.add(new Cand(child, scratch.clone(), ub))
        }
      }
    }
    finish(result, checked, visited)
  }

  private def finish(
      result: mutable.PriorityQueue[(Long, Double)],
      checked: Int,
      visited: Int,
  ): TopKResult =
    TopKResult(
      result.toSeq.sortBy { case (e, d) => (-d, e) },
      checked,
      visited,
    )
}
