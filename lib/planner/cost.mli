(** The planner's I/O cost model.

    Costs are estimated in block I/Os from three sources the paper
    gives us for free:

    - {b selectivity} comes from A-array directory probes
      ({!Secidx.Static_index.entry_bounds}) — two reads per range give
      the {e exact} per-column answer cardinality [z], so the usual
      histogram-estimation error of textbook optimizers simply does
      not exist here (what remains wrong is the independence product
      across correlated columns, which the error histograms measure);
    - {b exact decode cost} is the Theorem 2 envelope
      [z·lg(n/z)/B + lg_b n + lg lg n] with the hidden constant fitted
      on this table's own measured queries ({!calibrate}, the PR 4
      {!Obs.Envelope.fit} machinery), complement-aware via
      [min z (n-z)];
    - {b prefilter cost} is the Theorem 3 hashed-payload size: level
      [j] ({!Secidx.Approx_index.level}) stores [z] hashes of [2^j]
      bits gap-coded in a universe of [2^(2^j)], about
      [z · (2^j - lg z)] bits;
    - {b verification cost} prices reading candidate rows from the
      heap file as the expected number of distinct blocks hit by
      [v] uniform rows out of [m] row blocks. *)

type t = {
  block_bits : int;
  n : int;  (** rows *)
  c_exact : float;  (** fitted constant over the Theorem 2 bound *)
  c_approx : float;  (** fitted constant over the hashed-read bound *)
  c_verify : float;
      (** fitted locality factor over the uniform-scatter verification
          bound: clustered data packs candidate rows into shared heap
          blocks, so measured verification reads sit well under the
          uniform model — without this factor the planner over-prices
          residual checks and decodes wide predicates it never needed *)
  row_blocks : int;  (** heap-file blocks; 0 when rows are in memory *)
}

(** Uncalibrated model for [table]: both constants 1.0 (relative plan
    comparisons only need the shape of the bounds). *)
val of_table : Ridint.Table.t -> t

(** Fit the constants from a few cold queries per column against the
    table's own indexes (four ranges per column; the approximate
    samples at ε = 0.1), and — when the table stores rows —
    [c_verify] from cold cell reads over real single-character answer
    sets.  Issues counted I/Os and clears the buffer pool — calibrate
    once before measuring, not between timed queries. *)
val calibrate : Ridint.Table.t -> t

(** Raw bound shapes (constant-free), exposed for tests. *)
val exact_bound : block_bits:int -> n:int -> z:int -> float

val prefilter_bound : block_bits:int -> n:int -> z:int -> level:int -> float

(** Directory probe cost of planning a column with [ranges] ranges
    (two A-array reads each). *)
val probe_ios : t -> ranges:int -> float

(** Exact decode of a [z]-row answer (complement-aware). *)
val exact_ios : t -> z:int -> float

(** Hashed prefilter read at hash level [level] for an answer of
    exact size [z]. *)
val prefilter_ios : t -> level:int -> z:int -> float

(** Expected blocks to verify [rows] candidate rows against the heap
    file; 0.0 when rows are in memory (verification free). *)
val verify_ios : t -> rows:float -> float
