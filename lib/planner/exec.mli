(** Plan execution — the one executor for conjunctive queries.  Runs a
    cost-based {!Plan.choose} plan or a {!Plan.fixed} one through the
    same body: lowers the driver and steps onto warm
    [Indexing.Instance.run] requests on each column's instance and the
    §3 approximate indexes, verifies prefilter /
    residual / approximate-driver survivors against the stored rows,
    and reports per-query device counters.

    Results are always {e exact} — approximate answers only route
    candidates; every row they let through is re-checked against the
    real cell values before it reaches the answer (§3: "false
    positives can be filtered away when accessing the associated
    data").  [Count] queries return [rows = None]: single-column
    COUNTs under {!run} come straight from the planning-time directory
    probes (zero payload bits decoded), every other COUNT counts the
    executed intersection. *)

type outcome = {
  rows : Cbitmap.Posting.t option;  (** [Some] iff the query kind is [Rows] *)
  count : int;
  plan : Plan.t;
  checked : int;  (** candidate rows verified against cell values *)
  fp_rejected : int;  (** candidates verification threw away *)
  stats : Iosim.Stats.t;  (** this query's cold device counters *)
}

(** Plan and run [query] cold: buffer pool cleared and counters reset
    first, so [stats] holds just this query's cost, planning probes
    included.  [cost] defaults to the uncalibrated {!Cost.of_table};
    pass a {!Cost.calibrate}d model for sharper plan choices.  Every
    run bumps the [planner_*] metrics and feeds the
    [planner_{io,result,verify}_estimate_error] histograms. *)
val run : ?cost:Cost.t -> Ridint.Table.t -> Ast.query -> outcome

(** Run [query] cold under {!Plan.fixed}: every column decoded exactly
    in condition order and intersected, or, given [epsilon], the §3
    approximate intersection at that [ε] with every candidate verified.
    The baseline the planner is measured against; it touches no
    [planner_*] metric.  Raises [Invalid_argument] on an unknown
    column, or with [epsilon] on a column without an approximate
    index (see {!Ridint.Table.create_approx}). *)
val run_fixed : ?epsilon:float -> Ridint.Table.t -> Ast.query -> outcome
