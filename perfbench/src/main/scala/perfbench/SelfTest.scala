package perfbench

import repro.baseline.BruteForce
import repro.core._
import repro.mobility.{ImParams, TraceGen}
import repro.spindex.SpIndex

/** Checks that the bound replay passes on an intact tree and flags a
  * corrupted one: raising a node's `minSig` prunes cells its members do
  * have, so their leaves' bounds fall below their exact degrees.
  * Exits with code 1 on failure.
  */
object SelfTest {

  def main(args: Array[String]): Unit = {
    val sp = SpIndex.build(32, 4, 2.0, 2.0)
    val base = TraceGen.synLocal(32, 300, ImParams(horizon = 120), seed = 5)
    val store = TraceStore.fromLocal(base, sp)
    val hasher = new AdditiveHasher(sp, 64, 17)
    val measure = AdmMeasure(sp.m, 1, 1)
    def tree() = MinSigTree.fromLocal(base.map { case (e, cs) => e -> Signatures.computeLocal(cs, sp, hasher) }, sp, 64)
    val queries = Inputs.querySequence(store, 5).take(5)

    val intact = tree()
    val clean = queries.map(q => IndexWalk.unsound(intact, store, hasher, measure, q).size).sum

    // Corrupt the level-1 node above the query's best match in a fresh tree,
    // before any search has cached its pruning coordinates.
    val q = queries.head
    val (best, degree) = BruteForce.topK(store, measure, q, 1).head
    val corrupted = tree()
    val node = corrupted.root.children(corrupted.entityPath(best)._1(0))
    node.minSig = Array.fill(node.minSig.length)(Int.MaxValue)
    val flagged = IndexWalk.unsound(corrupted, store, hasher, measure, q)

    println(s"intact tree: $clean unsound members over ${queries.size} queries")
    println(s"corrupted level-1 node above entity $best (degree $degree to query $q): " +
      s"${flagged.size} unsound members flagged")
    val ok = clean == 0 && degree > 0 && flagged.exists(_.entity == best)
    println(if (ok) "bound replay check passed" else "bound replay check FAILED")
    if (!ok) sys.exit(1)
  }
}
