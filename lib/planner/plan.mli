(** Execution plans for a normalized conjunction: the cost-based
    optimizer ({!choose}) and the fixed rule ({!fixed}).

    {!choose} makes a per-query choice against {!Cost}:

    - one column becomes the {b driver}: its answer is decoded exactly
      (via the PR 5 batch substrate when it has several ranges) and
      seeds the candidate set;
    - every other column is handled by the cheapest of three actions:
      [Exact_inter] (decode exactly and intersect), [Prefilter] (read
      the §3 hashed sets at a chosen [ε] and drop candidates by hashed
      membership — false positives survive until verification), or
      [Residual] (skip its index entirely and check candidates against
      the stored rows);
    - COUNT-only conjunctions that normalize to at most one effective
      column bypass all of that: per-range directory probes already
      answered them during planning, zero payload bits decoded.

    Selectivities are {e probed, not guessed}: planning charges two
    A-array reads per range and gets each column's exact answer
    cardinality back.  What remains an estimate is the independence
    product across columns — {!t.est_result} / {!t.est_verify} vs the
    actuals feed the planner error histograms.

    {!fixed} is the rule the optimizer is measured against (§1's RID
    intersection, and §3's approximate intersection at a given [ε]):
    the first column drives and every other column is a step, in
    condition order, with no probes and no estimates. *)

type col_info = {
  column : string;
  ranges : (int * int) list;  (** normalized: disjoint, ascending *)
  z : int option;
      (** probed exact answer cardinality; [None] in a {!fixed} plan,
          which probes nothing *)
}

(** How the driver seeds the candidate set. *)
type decode =
  | Exact  (** decode its answer exactly *)
  | Approx of { epsilon : float }
      (** the preimage of its §3 approximate answer at [ε]; false
          positives survive until verification *)

type action = Exact_inter | Prefilter of { epsilon : float } | Residual
type step = { info : col_info; action : action }

type shape =
  | Const_empty  (** some column's constraint normalized to nothing *)
  | All_rows  (** no effective predicates *)
  | Count_directory of { column : string; count : int }
      (** COUNT over [<= 1] effective column: the answer is the probed
          [count], nothing left to execute *)
  | Scan of { driver : col_info; decode : decode; steps : step list }

type t = {
  shape : shape;
  kind : Ast.kind;
  est_result : float;  (** independence-product result cardinality *)
  est_verify : float;  (** rows expected to reach verification *)
  est_ios : float;  (** the three estimates are [nan] in a {!fixed} plan *)
  considered : int;  (** plans costed before choosing this one *)
}

(** Pick the cheapest plan under [cost], probing every effective
    column first.  Enumerates every driver choice crossed with
    per-column actions (exact / residual / a small [ε] grid of
    prefilters when the table has approximate indexes), exhaustively
    up to 512 combinations per driver and greedily per column beyond
    that.  The driver is always decoded [Exact]. *)
val choose : Cost.t -> Ridint.Table.t -> Ast.normal -> t

(** The fixed rule as a plan: the first column drives and every other
    column follows in order, all [Exact]/[Exact_inter] — or, given
    [epsilon], all [Approx]/[Prefilter] at that [ε], every column
    verified against its cells at the end (a row surviving [d]
    approximate answers is a false positive with probability at most
    [ε^d]).  Makes no probes, [considered = 0]. *)
val fixed : ?epsilon:float -> Ast.normal -> t

(** One-line rendering for bench output and debugging, e.g.
    ["scan driver=age(z=12) steps=[income(z=900):prefilter(0.10)
    kids(z=40000):residual]"]. *)
val describe : t -> string
