package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core.{Par, SymMatrix, Tmfg, TmfgResult}

/** TMFG for the Spark pipeline: the kernel `Tmfg.build` on the driver.
  *
  * Only kept because the layered benchmark (`layerbench/`) compiles against
  * it; a later benchmark change can call `Tmfg.build` and drop this object.
  */
object SparkTmfg {
  def build(spark: SparkSession, s: SymMatrix, prefix: Int): TmfgResult =
    Par.default(Tmfg.build(s, prefix, _))
}
