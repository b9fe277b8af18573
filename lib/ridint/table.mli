(** A column table with one secondary index per attribute — the
    storage side of the RID intersection application that motivates
    the paper (§1): per-column one-dimensional indexes (exact, and
    optionally the §3 approximate ones), the rows themselves when
    stored, and by-name column access.

    Conjunctive multi-attribute range queries ("married men of age
    33") are answered by [Planner.Exec]: cost-based plans via
    [Exec.run], the fixed RID intersection and §3's approximate
    intersection via [Exec.run_fixed].  The partial-match queries
    ({!query_at_least}, {!query_at_least_approx}) stay here as the one
    non-conjunctive operation: no planner decision applies to them. *)

type column = { name : string; sigma : int; values : int array }

type t

(** Number of rows. *)
val rows : t -> int

val columns : t -> column array

(** Build one static secondary index (Theorem 2) per column, all on
    the given device.  [store_rows] (default [false]) also packs the
    rows themselves on the device — the "associated data" of §3 — so
    candidate verification is a counted device read instead of a free
    in-memory lookup; the cost-based planner (PR 10) prices its
    prefilter decisions against those reads, and every verification
    (the planner's and {!query_at_least_approx}'s) pays them. *)
val create :
  ?c:int ->
  ?store_rows:bool ->
  Iosim.Device.t ->
  column list ->
  t

(** Also build approximate indexes (Theorem 3) for every column. *)
val create_approx :
  ?seed:int ->
  ?c:int ->
  ?store_rows:bool ->
  Iosim.Device.t ->
  column list ->
  t

(** Whether {!create} packed the rows on the device. *)
val stores_rows : t -> bool

(** Bits per packed heap-file row ([0] when rows are not stored) —
    the geometry the planner's verification pricing needs. *)
val row_bits : t -> int

(** A conjunctive condition: per-column inclusive value range. *)
type condition = { column : string; lo : int; hi : int }

(** Scan-based reference answer.  Reads the in-memory columns, so it
    charges nothing even on a table that stores its rows. *)
val naive : t -> condition list -> Cbitmap.Posting.t

(** Partial-match flavour (§1): rows matching at least [k] of the
    conditions. *)
val query_at_least : t -> k:int -> condition list -> Cbitmap.Posting.t

val size_bits : t -> int
val device : t -> Iosim.Device.t

(** {2 Planner-facing column access (PR 10)} *)

(** The column's exact index.  Raises [Invalid_argument] on an
    unknown column name, like every by-name lookup here. *)
val col_index : t -> string -> Secidx.Static_index.t

(** The column's exact index packaged as an instance, built once with
    the table: the one door through which [Planner.Exec] decodes a
    column's ranges ([Indexing.Instance.run]). *)
val col_instance : t -> string -> Indexing.Instance.t

(** The column's approximate index ([None] unless built with
    {!create_approx}). *)
val col_approx : t -> string -> Secidx.Approx_index.t option

val col_sigma : t -> string -> int

(** One cell of the associated data: the value of [column] at [row].
    A counted device read when the table {!stores_rows}; the in-memory
    column array otherwise. *)
val cell : t -> column:string -> row:int -> int

(** Does [column]'s value at [row] fall in one of the (disjoint)
    inclusive [ranges]?  Reads the cell via {!cell}, so verification
    cost is charged when the rows are stored. *)
val check_cell_ranges :
  t -> column:string -> row:int -> (int * int) list -> bool

(** Approximate partial match (§1 + §3): rows matching at least [k]
    of the conditions, computed from approximate per-condition answers
    and verified through {!cell} (counted reads when the table
    {!stores_rows}).  Returns the verified rows and the number of
    candidates checked. *)
val query_at_least_approx :
  t -> epsilon:float -> k:int -> condition list -> Cbitmap.Posting.t * int
