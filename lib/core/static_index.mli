(** The optimal static secondary index of §2.2 (Theorem 2).

    A pruned weight-balanced [c]-ary tree over the character instances
    (see {!Wbb}); compressed bitmaps are stored for the internal nodes
    of the materialized levels [1, 2, 4, 8, ...] and for all pruned
    leaves, each storage level as one left-to-right concatenation
    ({!Indexing.Stream_table}).  The tree's node metadata is packed
    into blocks subtree-wise so that a root-to-leaf descent touches
    [O(lg_b n)] blocks.  The prefix-cardinality array [A] supports the
    complement trick.

    Space: [O(n·H0 + n + σ·lg²n)] bits.  Query: the bits read are
    within a constant factor of the compressed answer, plus the
    descent and one chunk entry per storage level —
    [O(z·lg(n/z)/B + lg_b n + lg lg n)] I/Os. *)

(** Which internal levels keep explicit bitmaps (pruned leaves are
    always stored):
    - [`Doubling] — levels 1,2,4,8,… (the paper's choice);
    - [`All] — every level (ablation: more space, fewer merges);
    - [`Leaves_only] — none (ablation: minimum space, every query
      merges leaf bitmaps only). *)
type schedule = [ `Doubling | `All | `Leaves_only ]

type t

(** [build device ~sigma x]: the tree of branching [c] (default 8)
    over [x], storing the [schedule]'s levels (default [`Doubling])
    and the leaves through {!Wbb.store_levels}, each extent gap-coded
    with [code] (default gamma).  [complement] (default [true])
    enables the complement rule.  The index keeps [x] itself, not a
    copy, and no posting: a damaged stored level is re-derived from
    [x] by {!Wbb.level_positions}, so [x] must not change afterwards. *)
val build :
  ?c:int ->
  ?complement:bool ->
  ?schedule:schedule ->
  ?code:Cbitmap.Gap_codec.code ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  t

val query : t -> lo:int -> hi:int -> Indexing.Answer.t

(** Batched execution (PR 5): answers [ranges] slot for slot through
    the range evaluator [query] runs, but decodes each
    stored stream at most once for the whole batch and prefetches
    uncached payload runs.  What [Instance.batch] wires up.

    The decoded streams go into the {!Indexing.Stream_table.Arena} the
    index owns and reuses from query to query and batch to batch (it
    keeps the size of the largest batch's decoded streams), and each
    answer is one {!Indexing.Stream_table.Arena.union} over it, so the
    answers own their storage and a warm index allocates little beyond
    them.  [query] reads through the same arena.  The arena is
    confined to the domain running the query, as the device is:
    [query] and [query_batch] are not reentrant, and two domains must
    not run them on one index at once. *)
val query_batch : t -> (int * int) array -> Indexing.Answer.t array

(** The underlying tree (for inspection and for the approximate
    index). *)
val tree : t -> Wbb.t

(** Materialized internal levels, ascending. *)
val materialized_levels : t -> int list

(** The per-level and leaf stream tables are reachable through
    [plan]: the (storage, index range) runs a query would read.
    Exposed for white-box tests of the two-chunks-per-level claim. *)
type run = { storage : [ `Leaf | `Level of int ]; first : int; last : int }

val plan : t -> s:int -> e:int -> run list

(** The stream table a run's storage names (for white-box tests). *)
val table : t -> [ `Leaf | `Level of int ] -> Indexing.Stream_table.t

(** [entry_bounds t ~lo ~hi] reads the A array (counted I/O) and
    returns the entry range [(s, e)] of the character range. *)
val entry_bounds : t -> lo:int -> hi:int -> int * int

(** Like {!plan} but also charges the descent I/Os (metadata of the
    boundary spines and canonical nodes) to the device — what a real
    query pays before reading any bitmap.  Opens no phase span: the
    caller charges it, with the runs' directory entries, to one
    "directory" span. *)
val plan_charged : t -> s:int -> e:int -> run list

val size_bits : t -> int

(** Size of the A array + node metadata blocks (the [σ·lg²n] term). *)
val metadata_bits : t -> int

(** Package a built index as an {!Indexing.Instance.t}. *)
val instance_of : t -> Indexing.Instance.t

(** [build], then {!instance_of}. *)
val instance :
  ?c:int ->
  ?complement:bool ->
  ?schedule:schedule ->
  ?code:Cbitmap.Gap_codec.code ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  Indexing.Instance.t
