package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{Apsp, SymMatrix, WGraph}

/** Distributed APSP over the TMFG: the n sources fan out over an RDD in
  * contiguous blocks, one per partition, while the prepared graph (a flat
  * CSR with O(n) edges) ships once as a broadcast — the dataflow
  * equivalent of the paper's "SSSP from every vertex in parallel"
  * (Algorithm 4, Line 7). Each partition runs its block through the
  * kernel's `Apsp.rowsInto`, so the rows are the kernel's bit for bit.
  */
object SparkApsp {

  def allPairs(spark: SparkSession, g: WGraph, d: SymMatrix): SymMatrix = {
    val n      = g.n
    val sc     = spark.sparkContext
    val bGraph = sc.broadcast(Apsp.prepare(g, d))
    try {
      val parts = math.min(256, n)
      val blocks = sc
        .parallelize(0 until parts, parts)
        .map { b =>
          val lo   = b * n / parts
          val hi   = (b + 1) * n / parts
          val rows = new Array[Double]((hi - lo) * n)
          Apsp.rowsInto(bGraph.value, lo, hi, rows, 0)
          (lo, rows)
        }
        .collect()
      val out = SymMatrix.zeros(n)
      for ((lo, rows) <- blocks) System.arraycopy(rows, 0, out.data, lo * n, rows.length)
      out
    } finally bGraph.destroy()
  }
}
