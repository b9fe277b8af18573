(** One shard of a position-sharded logical index (PR 6).

    The logical string is split into contiguous slices; shard [i]
    indexes its slice re-based to local position 0 on its own device,
    so all mutable query state (pool, counters) is
    shard-private and one domain can own the shard outright.  An
    alphabet-range query scatters to every shard unchanged; local
    answers shifted by {!base} concatenate — in shard order, without
    dedup — into the bit-identical global answer. *)

type t

val ordinal : t -> int

(** Global position of the shard's local position 0. *)
val base : t -> int

val len : t -> int

(** [None] iff the slice is empty (more shards than positions). *)
val instance : t -> Indexing.Instance.t option

val device : t -> Iosim.Device.t option

(** Snapshot of the shard device's counters (all-zero for an empty
    shard).  Only read this at quiescence — after the owning domain
    has been joined or synchronized with. *)
val stats : t -> Iosim.Stats.t

(** [slice_bounds ~n ~shards i] is [(base, len)] of slice [i]: slices
    differ in length by at most one, the first [n mod shards] taking
    the extra position. *)
val slice_bounds : n:int -> shards:int -> int -> int * int

(** [build ~shards ~make_device ~build ~sigma x] cuts [x] into
    [shards] slices and indexes each on the device [make_device i]
    returns.  Builders are the uniform [Instance] constructors used by
    the bench. *)
val build :
  shards:int ->
  make_device:(int -> Iosim.Device.t) ->
  build:(Iosim.Device.t -> sigma:int -> int array -> Indexing.Instance.t) ->
  sigma:int ->
  int array ->
  t array

(** Warm local batch through [Indexing.Instance.run ~pool:`Warm]:
    row [i] answers [ranges.(i)] within this
    shard's slice, in local positions [\[0, len)] and in the compressed
    form the index produced ([Complement] rows stay complements).  The
    caller shifts by {!base} and materializes ({!Router.query_batch}
    writes each row once into the global answer).  Rows are immutable
    and may share storage with the instance's answers.  An empty shard
    answers [Direct empty]. *)
val run_batch : t -> (int * int) array -> Indexing.Answer.t array
