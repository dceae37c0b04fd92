package repro.core

import scala.collection.mutable.ArrayBuffer

/** Output of TMFG construction (paper Algorithm 1 + 2).
  *
  * @param graph    the filtered graph (3n-6 edges, maximal planar)
  * @param tree     the bubble tree built during construction
  * @param rounds   number of batch rounds executed (the paper's rho)
  * @param insertionOrder vertices in the order they were inserted (the
  *                 first four are the seed clique)
  */
final case class TmfgResult(graph: WGraph, tree: BubbleTree, rounds: Int,
                            insertionOrder: Array[Int])

/** Parallel batched TMFG construction (paper §IV, Algorithm 1).
  *
  * Up to `prefix` vertices are inserted per round: the faces with the
  * highest best-vertex gains are selected (a parallel sort / max over the
  * per-face GAINS table), conflicts where one vertex is the best of
  * several faces are resolved in favor of the max-gain face, and the
  * selected vertices are inserted simultaneously. `prefix = 1` reproduces
  * the sequential TMFG of Massara et al. exactly.
  *
  * The GAINS table is maintained incrementally: each face caches its best
  * remaining vertex, and each vertex keeps a reverse index of the faces
  * it is currently best for (the paper's optimization over rescanning all
  * faces). After a round, only the three new faces per insertion and the
  * faces whose cached best vertex was just inserted are rescanned; the
  * rescans are the dominant work and run in parallel over faces.
  */
object Tmfg {

  def build(s: SymMatrix, prefix: Int, par: Par): TmfgResult = {
    val n = s.n
    require(n >= 4, s"TMFG needs at least 4 vertices, got $n")
    require(prefix >= 1, s"prefix must be >= 1, got $prefix")

    // --- seed: the four vertices with largest row sums in S ---
    val rowSums = par.parMap(n)(i => s.rowSum(i))
    val seed = (0 until n).sortBy(i => (-rowSums(i), i)).take(4).toArray
    val inserted = new Array[Boolean](n)
    seed.foreach(v => inserted(v) = true)

    val edges = new ArrayBuffer[(Int, Int)](3 * n)
    for (i <- 0 until 4; j <- i + 1 until 4) edges += ((seed(i), seed(j)))

    // remaining vertices with swap-removal
    val vlist = (0 until n).filterNot(inserted).toArray
    val vpos  = Array.fill(n)(-1)
    for (i <- vlist.indices) vpos(vlist(i)) = i
    var vcount = vlist.length

    def removeVertex(v: Int): Unit = {
      val p = vpos(v)
      val last = vlist(vcount - 1)
      vlist(p) = last; vpos(last) = p
      vlist(vcount - 1) = v; vpos(v) = -1
      vcount -= 1
    }

    // --- face tables ---
    val maxFaces = 3 * n // 4 + 3*(n-4) alive at the end, plus killed ones
    val faceVerts  = new ArrayBuffer[Array[Int]](maxFaces)
    val faceBubble = new ArrayBuffer[Int](maxFaces)
    val faceAlive  = new ArrayBuffer[Boolean](maxFaces)
    val bestV      = new ArrayBuffer[Int](maxFaces)
    val bestGain   = new ArrayBuffer[Double](maxFaces)
    // reverse index: faces for which v is the cached best vertex (may
    // contain stale entries; validated on use)
    val facesOfBest = Array.fill(n)(new ArrayBuffer[Int](4))

    val tree = new BubbleTree(n)
    val b0 = tree.addBubble(seed.clone())
    tree.root = b0

    def addFace(tri: Array[Int], bubble: Int): Int = {
      val id = faceVerts.length
      faceVerts += tri
      faceBubble += bubble
      faceAlive += true
      bestV += -1
      bestGain += Double.NegativeInfinity
      id
    }

    // rescan: recompute the best remaining vertex for face f
    def rescan(f: Int): Unit = {
      val tri = faceVerts(f)
      val r0 = tri(0) * n; val r1 = tri(1) * n; val r2 = tri(2) * n
      var bv = -1
      var bg = Double.NegativeInfinity
      var i = 0
      while (i < vcount) {
        val v = vlist(i)
        val g = s.data(r0 + v) + s.data(r1 + v) + s.data(r2 + v)
        if (g > bg || (g == bg && v < bv)) { bg = g; bv = v }
        i += 1
      }
      bestV(f) = bv
      bestGain(f) = bg
    }

    val f0 = addFace(Array(seed(0), seed(1), seed(2)), b0)
    addFace(Array(seed(0), seed(1), seed(3)), b0)
    addFace(Array(seed(0), seed(2), seed(3)), b0)
    addFace(Array(seed(1), seed(2), seed(3)), b0)
    var outerFaceId = f0

    val aliveList = ArrayBuffer(0, 1, 2, 3)
    for (f <- aliveList) { rescan(f); if (bestV(f) >= 0) facesOfBest(bestV(f)) += f }

    val insertionOrder = new ArrayBuffer[Int](n)
    insertionOrder ++= seed

    var rounds = 0
    while (vcount > 0) {
      rounds += 1

      // --- Lines 9-10: pick up to `prefix` vertex-face pairs ---
      val selected: IndexedSeq[Int] = // face ids, one per chosen vertex
        if (prefix == 1) {
          // single parallel maximum over the GAINS table (coarse grain:
          // each element is O(1) work)
          val best = par.parReduce(aliveList.length, (-1, Double.NegativeInfinity), grain = 2048) { i =>
            val f = aliveList(i)
            (f, bestGain(f))
          } { (a, b) =>
            if (b._2 > a._2 || (b._2 == a._2 && b._1 != -1 && (a._1 == -1 || b._1 < a._1))) b else a
          }
          IndexedSeq(best._1)
        } else {
          val fs = aliveList.toArray
          val sorted = fs.sortBy(f => (-bestGain(f), f))
          // conflict resolution: a vertex keeps only its max-gain face
          val chosenFaceOf = new java.util.HashMap[Int, Int]()
          val picks = new ArrayBuffer[Int](prefix)
          var i = 0
          while (i < sorted.length && picks.length < prefix) {
            val f = sorted(i)
            val v = bestV(f)
            if (v >= 0 && !chosenFaceOf.containsKey(v)) {
              chosenFaceOf.put(v, f)
              picks += f
            }
            i += 1
          }
          picks.toIndexedSeq
        }

      // --- Lines 11-17: insert the batch ---
      val newFaces = new ArrayBuffer[Int](3 * selected.length)
      val insertedNow = new ArrayBuffer[Int](selected.length)
      for (f <- selected; if f >= 0 && faceAlive(f)) {
        val v = bestV(f)
        if (v >= 0 && vpos(v) >= 0) {
          val tri = faceVerts(f)
          removeVertex(v)
          inserted(v) = true
          insertedNow += v
          insertionOrder += v
          edges += ((v, tri(0))); edges += ((v, tri(1))); edges += ((v, tri(2)))

          // bubble tree update (Algorithm 2)
          val bStar = tree.addBubble(Array(tri(0), tri(1), tri(2), v))
          val b = faceBubble(f)
          val wasOuter = f == outerFaceId
          if (wasOuter) {
            tree.link(bStar, tree.root, tri.clone())
            tree.root = bStar
          } else {
            tree.link(b, bStar, tri.clone())
          }

          // replace face f with the three new faces of bStar
          faceAlive(f) = false
          val nf1 = addFace(Array(v, tri(0), tri(1)), bStar)
          val nf2 = addFace(Array(v, tri(1), tri(2)), bStar)
          val nf3 = addFace(Array(v, tri(0), tri(2)), bStar)
          if (wasOuter) outerFaceId = nf1
          newFaces += nf1; newFaces += nf2; newFaces += nf3
        }
      }
      // finite S always inserts: every rescanned face has bestV >= 0 while
      // vertices remain. A NaN or -Inf row never wins a face and would spin.
      if (insertedNow.isEmpty)
        throw new IllegalStateException(
          s"TMFG round $rounds inserted no vertex: $vcount remaining, e.g. vertex ${vlist(0)}; " +
            "its similarities give no finite gain (NaN or -Inf in S?)")

      // update the alive-face list: drop killed faces, append new ones
      var w = 0
      var i = 0
      while (i < aliveList.length) {
        val f = aliveList(i)
        if (faceAlive(f)) { aliveList(w) = f; w += 1 }
        i += 1
      }
      aliveList.dropRightInPlace(aliveList.length - w)
      aliveList ++= newFaces

      // --- dirty faces: new ones + faces whose cached best was inserted ---
      val dirty = new ArrayBuffer[Int](newFaces.length + 8)
      dirty ++= newFaces
      for (v <- insertedNow) {
        for (f <- facesOfBest(v)) if (faceAlive(f) && bestV(f) == v) dirty += f
        facesOfBest(v).clear()
      }
      if (vcount > 0) {
        // a rescan costs O(vcount); only fan out when the batch carries
        // enough total work to amortize task submission
        val grain = math.max(1, 20000 / math.max(1, vcount))
        par.parFor(dirty.length, grain)(i => rescan(dirty(i)))
        for (f <- dirty; if bestV(f) >= 0) facesOfBest(bestV(f)) += f
      }
    }

    val graph = WGraph.fromEdges(n, edges)
    TmfgResult(graph, tree, rounds, insertionOrder.toArray)
  }
}
